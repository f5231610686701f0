package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"score"
	"score/internal/metrics"
)

// durableWorkload drives the public score API with real payloads: one
// simulated node runs cfg.clients clients started with Clock.Go, each
// with a durable store, so evictions, SSD flushes and SSD reads move
// real bytes. Per client and iteration: reverse prefetch hints, a
// forward pass of Checkpoint + Compute(10ms), PrefetchStart, a backward
// pass of Restart (each compared bit-exact with what was written),
// WaitFlush, and a StoreVersions check that every version is on disk.
type durableWorkload struct {
	cfg   durableConfig
	work  string
	pool  []byte  // seeded payload source
	sizes [][]int // [client][version] payload size
	iter  int

	// tamper, when set, alters restored bytes before they are compared
	// (tests use it to show a corrupted restore is counted as failed).
	tamper func(client int, version int64, data []byte)
}

type durableConfig struct {
	clients, versions int
	// size is the mean payload size; each version's size is drawn from
	// the seed, uniform within ±12.5% of it, so the simulated figures
	// depend on the seed without the cache packing changing much.
	size                int
	gpuCache, hostCache int64
	compute             time.Duration
}

// defaultDurableConfig keeps the caches at 1/8 (GPU) and 1/2 (host) of a
// client's data, so evictions and SSD reads happen. A client writes 125
// versions of 1 MiB per iteration: with 500 the run holds about 2 GB
// and its call latencies follow page-cache writeback, which swings
// several-fold between runs; smaller payloads would shift the cost from
// hashing bytes to creating files.
var defaultDurableConfig = durableConfig{
	clients: 2, versions: 125, size: 1 << 20,
	gpuCache: 16 << 20, hostCache: 64 << 20, compute: 10 * time.Millisecond,
}

// durablePoolSize is the seeded byte pool payloads are cut from.
const durablePoolSize = 64 << 20

func newDurableWorkload(cfg durableConfig) *durableWorkload { return &durableWorkload{cfg: cfg} }

func (w *durableWorkload) setup(seed int64, work string) error {
	w.work = work
	rng := rand.New(rand.NewSource(seed))
	if w.pool == nil {
		w.pool = make([]byte, durablePoolSize)
	}
	rng.Read(w.pool)
	w.sizes = make([][]int, w.cfg.clients)
	for c := range w.sizes {
		w.sizes[c] = make([]int, w.cfg.versions)
		for v := range w.sizes[c] {
			w.sizes[c][v] = w.cfg.size*7/8 + rng.Intn(w.cfg.size/4)
		}
	}
	return nil
}

// payload fills buf, grown to (client, version)'s size, with that
// version's bytes: a window of the seeded pool with a version stamp in
// front.
func (w *durableWorkload) payload(buf []byte, client int, version int64) []byte {
	n := w.sizes[client][version]
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	off := (int64(client)*int64(w.cfg.versions) + version) * 4099 % int64(len(w.pool)-n)
	copy(buf, w.pool[off:])
	binary.LittleEndian.PutUint64(buf, uint64(version))
	binary.LittleEndian.PutUint64(buf[8:], uint64(client))
	return buf
}

// clientRun is one client's measurements for one iteration; clients run
// as concurrent simulated tasks, so each records into its own.
type clientRun struct {
	tally
	ckpt, restart []time.Duration
	summary       metrics.Summary
	dir           string
}

func (w *durableWorkload) iterate(p *phase) {
	dir := filepath.Join(w.work, fmt.Sprintf("iter-%d", w.iter))
	w.iter++
	defer os.RemoveAll(dir)

	runs := make([]clientRun, w.cfg.clients)
	sim, err := score.NewSim(score.WithGPUsPerNode(max(w.cfg.clients, 1)))
	if !p.check(wrap("new sim", err)) {
		return
	}
	var makespan time.Duration
	sim.Run(func() {
		wg := sim.NewWaitGroup()
		for c := range runs {
			c := c
			runs[c].dir = filepath.Join(dir, fmt.Sprintf("rank%d", c))
			wg.Add(1)
			sim.Clock().Go(func() {
				defer wg.Done()
				w.runClient(p.spans, sim, c, &runs[c])
			})
		}
		wg.Wait()
		makespan = sim.Clock().Now()
	})

	for c := range runs {
		r := &runs[c]
		p.merge(r.tally)
		p.ops += int64(len(r.ckpt) + len(r.restart))
		for _, d := range r.ckpt {
			p.ckpt.add(d)
		}
		for _, d := range r.restart {
			p.restart.add(d)
		}
		p.check(w.checkStore(r.dir))
		addSummary(&p.sim, r.summary)
		p.digest(fmt.Sprintf("client%d", c), summaryDigest(r.summary))
		if p.spans != nil {
			for comp, d := range critWaits(r.summary) {
				p.layer["core.wait."+comp+"_s"] += d
			}
			for key, q := range blockedQuantiles(r.summary) {
				p.layer[key] += q / float64(len(runs))
			}
			p.layer["payload.bytes_hashed"] += float64(r.summary.CheckpointBytes + r.summary.RestoreBytes)
			files, size := diskUsage(r.dir)
			p.layer["ckptstore.files"] += files
			p.layer["ckptstore.bytes_on_disk"] += size
		}
	}
	p.sim.makespans = append(p.sim.makespans, makespan.Seconds())
}

// runClient runs one client's closed loop: each call is issued only
// after the previous one returned. A call's host time is the process CPU
// time that elapses while it is outstanding (see cpuTime): the other
// client's work and the flushers it waits on included, time the
// hypervisor stole excluded.
func (w *durableWorkload) runClient(spans *spanLog, sim *score.Sim, c int, r *clientRun) {
	id := int32(c)
	cl, err := sim.NewClient(0, c, score.WithStore(r.dir),
		score.WithGPUCache(w.cfg.gpuCache), score.WithHostCache(w.cfg.hostCache))
	if err != nil {
		r.checkN(int64(2*w.cfg.versions), fmt.Errorf("client %d: %w", c, err))
		return
	}
	defer cl.Close()
	n := int64(w.cfg.versions)
	for v := n - 1; v >= 0; v-- {
		cl.PrefetchEnqueue(v)
	}
	// Clients start staggered across one compute interval, as ranks of a
	// real job do; in lockstep their calls would tie at the same
	// simulated instants, and which one goes first (and so whose work a
	// call's CPU time includes) would be up to the Go scheduler.
	cl.Compute(time.Duration(c) * w.cfg.compute / time.Duration(w.cfg.clients))
	for v := int64(0); v < n; v++ {
		data := w.payload(nil, c, v) // a fresh buffer: the client keeps it
		h := spans.begin("score.Checkpoint", id, -1)
		start := cpuTime()
		err := cl.Checkpoint(v, data)
		r.ckpt = append(r.ckpt, cpuTime()-start)
		spans.end(h)
		r.check(wrap(fmt.Sprintf("client %d checkpoint %d", c, v), err))
		cl.Compute(w.cfg.compute)
	}
	cl.PrefetchStart()
	var want []byte
	for v := n - 1; v >= 0; v-- {
		h := spans.begin("score.Restart", id, -1)
		start := cpuTime()
		got, err := cl.Restart(v)
		r.restart = append(r.restart, cpuTime()-start)
		spans.end(h)
		if r.check(wrap(fmt.Sprintf("client %d restart %d", c, v), err)) {
			if w.tamper != nil {
				w.tamper(c, v, got)
			}
			want = w.payload(want, c, v)
			r.check(verifyRestore(c, v, got, want))
		}
		cl.Compute(w.cfg.compute)
	}
	h := spans.begin("score.WaitFlush", id, -1)
	err = cl.WaitFlush()
	spans.end(h)
	r.check(wrap(fmt.Sprintf("client %d wait flush", c), err))
	r.check(wrap(fmt.Sprintf("client %d metrics invariants", c), cl.CheckMetricsInvariants(true)))
	r.check(wrap(fmt.Sprintf("client %d async error", c), cl.Err()))
	r.summary = cl.MetricsSummary()
}

// verifyRestore compares a restored version with what was written.
func verifyRestore(c int, v int64, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("client %d restart %d: restored %d bytes differ from the %d written", c, v, len(got), len(want))
	}
	return nil
}

// checkStore checks that the client's durable store lists every version.
func (w *durableWorkload) checkStore(dir string) error {
	ids, err := score.StoreVersions(dir)
	if err != nil {
		return fmt.Errorf("store versions: %w", err)
	}
	if len(ids) != w.cfg.versions {
		return fmt.Errorf("store %s holds %d versions, want %d", filepath.Base(dir), len(ids), w.cfg.versions)
	}
	for i, id := range ids {
		if id != int64(i) {
			return fmt.Errorf("store %s: version %d missing", filepath.Base(dir), i)
		}
	}
	return nil
}

func diskUsage(dir string) (files, size float64) {
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a vanished entry just is not counted
		}
		if info, err := d.Info(); err == nil {
			files++
			size += float64(info.Size())
		}
		return nil
	})
	return files, size
}

func summaryDigest(s metrics.Summary) string {
	b, err := json.Marshal(s)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func (w *durableWorkload) finish(p *phase) {
	if p.spans == nil {
		return
	}
	for k, v := range p.layer {
		p.layer[k] = v / float64(p.iters)
	}
}
