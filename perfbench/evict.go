package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"score/internal/cachebuf"
	"score/internal/rtm"
	"score/internal/simclock"
)

// evictWorkload replays seeded access traces directly against
// cachebuf.Buffer on a bare simclock.Virtual, one fresh buffer per
// (trace, policy) cell, with the next-use oracle on the benchmark side.
// No core, fabric or payload code runs: this isolates the eviction layer.
//
// Traces (block sizes vary under the seed, so gap placement and
// fragmentation do work):
//   - kv: the LLM KV-cache session pattern of internal/experiments
//     evict.go — Zipf-skewed sessions re-reading their prefix blocks and
//     appending one, interleaved with one-shot scan bursts;
//   - rtm: the adjoint pattern — forward writes of a variable-size RTM
//     trace, then the reverse restore scan.
//
// clock-pro is not replayed: it is marked for deletion or rewrite, and
// its cost would swamp the other policies.
type evictWorkload struct {
	traces   []accessTrace
	policies []cachebuf.Policy
	// hits and reads per policy, pooled over traces, for the phase's
	// cachebuf.hit_ratio.<policy> metrics.
	hits, reads map[string]int64
}

var evictPolicies = []string{"score", "lru", "fifo", "lru-k", "2q", "arc"}

// access is one block access; insert marks first writes (the checkpoint
// itself), which are not restore lookups.
type access struct {
	id     cachebuf.ID
	insert bool
}

type accessTrace struct {
	name     string
	accesses []access
	size     []int64 // per block id
	nextPos  []int   // per access: position of the same block's next access, -1 if none
	capacity int64
}

// Simulated cost model of one access (the replay has no fabric): a
// checkpoint write crosses PCIe into the cache, a restore hit is a
// device-local copy, and a restore miss re-fetches from the lower tier
// at the 2 GB/s host link of the eviction ablation.
const (
	accessLatency = 10 * time.Microsecond
	insertBW      = 25e9
	hitBW         = 1.5e12
	missBW        = 2e9
)

func transferTime(bytes int64, bw float64) time.Duration {
	return accessLatency + time.Duration(float64(bytes)/bw*float64(time.Second))
}

func (w *evictWorkload) setup(seed int64, _ string) error {
	w.policies = w.policies[:0]
	for _, name := range evictPolicies {
		pol, err := cachebuf.ParsePolicy(name)
		if err != nil {
			return err
		}
		w.policies = append(w.policies, pol)
	}
	rng := rand.New(rand.NewSource(seed))
	kv := kvTrace(2304, rng)
	rt, err := rtmScanTrace(768, seed)
	if err != nil {
		return err
	}
	w.traces = []accessTrace{kv, rt}
	w.hits, w.reads = map[string]int64{}, map[string]int64{}
	return nil
}

// kvTrace builds the KV-cache session trace (same shape as the eviction
// ablation's kv workload) with lognormal block sizes around 1 MiB. The
// cache holds an eighth of the distinct bytes.
func kvTrace(turns int, rng *rand.Rand) accessTrace {
	const (
		sessions  = 48
		zipfS     = 1.3
		maxPrefix = 12
		scanEvery = 7
		scanLen   = 16
	)
	tr := accessTrace{name: "kv"}
	zipf := rand.NewZipf(rng, zipfS, 1, sessions-1)
	newBlock := func() cachebuf.ID {
		id := cachebuf.ID(len(tr.size))
		sz := int64(float64(1<<20) * math.Exp(rng.NormFloat64()*0.5))
		tr.size = append(tr.size, min(max(sz, 64<<10), 4<<20))
		tr.accesses = append(tr.accesses, access{id: id, insert: true})
		return id
	}
	prefix := make([][]cachebuf.ID, sessions)
	for s := range prefix {
		prefix[s] = []cachebuf.ID{newBlock(), newBlock()}
	}
	for turn := 0; turn < turns; turn++ {
		if turn%scanEvery == scanEvery-1 {
			for k := 0; k < scanLen; k++ {
				newBlock()
			}
			continue
		}
		s := int(zipf.Uint64())
		for _, b := range prefix[s] {
			tr.accesses = append(tr.accesses, access{id: b})
		}
		if len(prefix[s]) < maxPrefix {
			prefix[s] = append(prefix[s], newBlock())
		}
	}
	var total int64
	for _, sz := range tr.size {
		total += sz
	}
	tr.capacity = total / 8
	tr.index()
	return tr
}

// rtmScanTrace builds the adjoint trace: n forward writes sized by the
// RTM trace generator (mean 2 MiB), then the reverse restore scan. The
// cache holds a quarter of the shot.
func rtmScanTrace(n int, seed int64) (accessTrace, error) {
	cfg := rtm.DefaultTraceConfig()
	cfg.Snapshots, cfg.Seed = n, seed
	cfg.MeanSize = 2 << 20
	cfg.MinAggregate = int64(n) * cfg.MeanSize * 38 / 48
	cfg.MaxAggregate = int64(n) * cfg.MeanSize * 50 / 48
	shot, err := rtm.GenerateShot(cfg, 0)
	if err != nil {
		return accessTrace{}, err
	}
	tr := accessTrace{name: "rtm", size: shot.Sizes, capacity: shot.Total() / 4}
	for i := 0; i < n; i++ {
		tr.accesses = append(tr.accesses, access{id: cachebuf.ID(i), insert: true})
	}
	for i := n - 1; i >= 0; i-- {
		tr.accesses = append(tr.accesses, access{id: cachebuf.ID(i)})
	}
	tr.index()
	return tr, nil
}

// index fills nextPos, the oracle's next-use table.
func (tr *accessTrace) index() {
	tr.nextPos = make([]int, len(tr.accesses))
	last := make([]int, len(tr.size))
	for i := range last {
		last[i] = -1
	}
	for i := len(tr.accesses) - 1; i >= 0; i-- {
		id := tr.accesses[i].id
		tr.nextPos[i] = last[id]
		last[id] = i
	}
}

// nextUseOracle is the replay's cachebuf.Oracle: every block is durable
// (always evictable, never pinned) and a block's prefetch distance is
// the number of accesses until its next use — the restore-order-queue
// hint the score policy consumes in the real client.
type nextUseOracle struct {
	pos  int
	next []int // per block: position of its next access, -1 if none
}

func (o *nextUseOracle) Evictable(cachebuf.ID) bool                        { return true }
func (o *nextUseOracle) TimeToEvictable(cachebuf.ID) (time.Duration, bool) { return 0, true }
func (o *nextUseOracle) Evicted(cachebuf.ID)                               {}
func (o *nextUseOracle) PrefetchDistance(id cachebuf.ID) int {
	n := o.next[id]
	if n < 0 || n-o.pos >= cachebuf.GapDistance {
		return cachebuf.GapDistance - 1
	}
	return n - o.pos
}

// cellResult is one (trace, policy) replay's outcome.
type cellResult struct {
	hits, misses, reads  int64
	stats                cachebuf.Stats
	ckptBytes, restBytes int64
	ckptSim, restSim     time.Duration
}

func (w *evictWorkload) iterate(p *phase) {
	var makespan time.Duration
	for ti, tr := range w.traces {
		for pi, pol := range w.policies {
			id := int32(ti*len(w.policies) + pi)
			cell := w.replay(p, id, tr, pol)
			p.sim.ckptBytes += float64(cell.ckptBytes)
			p.sim.ckptBlocked += cell.ckptSim.Seconds()
			p.sim.restoreBytes += float64(cell.restBytes)
			p.sim.restoreBlocked += cell.restSim.Seconds()
			p.sim.hits += cell.hits
			p.sim.reads += cell.reads
			makespan += cell.ckptSim + cell.restSim
			key := tr.name + "/" + pol.String()
			w.hits[pol.String()] += cell.hits
			w.reads[pol.String()] += cell.reads
			p.layer["cachebuf.evictions"] += float64(cell.stats.Evictions)
			p.digest(key, cellDigest(cell))
		}
	}
	p.sim.makespans = append(p.sim.makespans, makespan.Seconds())
}

// replay runs one cell on a fresh buffer and virtual clock, timing every
// access: a write access (insert) is a checkpoint call, a read access
// (lookup, touch or miss re-fetch) a restart call.
func (w *evictWorkload) replay(p *phase, id int32, tr accessTrace, pol cachebuf.Policy) cellResult {
	var cell cellResult
	cellSpan := p.spans.begin("cachebuf.replay/"+tr.name+"/"+pol.String(), id, -1)
	defer p.spans.end(cellSpan)

	o := &nextUseOracle{next: make([]int, len(tr.size))}
	for i := range o.next {
		o.next[i] = -1
	}
	for i := len(tr.accesses) - 1; i >= 0; i-- {
		o.next[tr.accesses[i].id] = i
	}

	clk := simclock.NewVirtual()
	clk.Run(func() {
		buf := cachebuf.New(clk, "replay-"+tr.name, tr.capacity, o)
		defer buf.Close()
		if !p.check(buf.SetPolicy(pol)) {
			return
		}
		for i, a := range tr.accesses {
			o.pos, o.next[a.id] = i, tr.nextPos[i]
			size := tr.size[a.id]
			start := time.Now()
			_, _, hit := buf.Contains(a.id)
			var err error
			if hit {
				buf.Touch(a.id)
			} else {
				h := p.spans.begin("cachebuf.TryReserve", id, cellSpan)
				_, err = buf.TryReserve(a.id, size)
				p.spans.end(h)
			}
			elapsed := time.Since(start)
			if !p.check(wrap(fmt.Sprintf("%s/%s access %d", tr.name, pol, i), err)) {
				continue
			}
			p.ops++
			if a.insert {
				p.ckpt.add(elapsed)
				cell.ckptBytes += size
				cell.ckptSim += transferTime(size, insertBW)
				continue
			}
			p.restart.add(elapsed)
			cell.reads++
			cell.restBytes += size
			if hit {
				cell.hits++
				cell.restSim += transferTime(size, hitBW)
			} else {
				cell.misses++
				cell.restSim += transferTime(size, missBW)
			}
		}
		cell.stats = buf.Snapshot()
		p.check(wrap(fmt.Sprintf("%s/%s invariants", tr.name, pol), buf.CheckInvariants()))
	})
	p.check(checkCellCounts(tr.name+"/"+pol.String(), cell))
	return cell
}

// checkCellCounts checks the replay's own accounting: every read is a
// hit or a miss.
func checkCellCounts(cell string, c cellResult) error {
	if c.hits+c.misses != c.reads {
		return fmt.Errorf("%s: %d hits + %d misses != %d reads", cell, c.hits, c.misses, c.reads)
	}
	return nil
}

func cellDigest(c cellResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %+v %d %d %d %d", c.hits, c.misses, c.reads, c.stats, c.ckptBytes, c.restBytes, c.ckptSim, c.restSim)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (w *evictWorkload) finish(p *phase) {
	hits, reads := w.hits, w.reads
	w.hits, w.reads = map[string]int64{}, map[string]int64{}
	if p.spans == nil {
		return
	}
	for _, pol := range evictPolicies {
		p.layer["cachebuf.hit_ratio."+pol] = float64(hits[pol]) / float64(reads[pol])
	}
	p.layer["cachebuf.evictions"] /= float64(p.iters)
	reserve := p.spans.durations("cachebuf.TryReserve")
	us := make([]float64, len(reserve))
	for i, d := range reserve {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	p.layer["cachebuf.reserve_p50_us"] = quantile(us, 0.5)
	p.layer["cachebuf.reserve_p99_us"] = tailQuantile(us)
}
