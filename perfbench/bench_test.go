package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"score/internal/experiments"
	"score/internal/rtm"
)

// lastLine decodes the result line a run prints last.
func lastLine(t *testing.T, res *result) (correct bool, attempted, failed int64, m map[string]metric) {
	t.Helper()
	var buf bytes.Buffer
	res.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("result line: %v\n%s", err, buf.String())
	}
	return out.Correct, out.Attempted, out.Failed, out.Metrics
}

// smallDurable is a durable-realbytes run small enough for a unit test
// that still evicts to the SSD tier and reads back from it.
var smallDurable = durableConfig{
	clients: 2, versions: 24, size: 256 << 10,
	gpuCache: 2 << 20, hostCache: 3 << 20, compute: 10 * time.Millisecond,
}

func runDurable(t *testing.T, w *durableWorkload) *result {
	t.Helper()
	res, err := runWorkload(w, "durable-realbytes", 7, time.Nanosecond, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDurableRunIsCorrect(t *testing.T) {
	correct, attempted, failed, m := lastLine(t, runDurable(t, newDurableWorkload(smallDurable)))
	if !correct || failed != 0 || attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want a clean run", correct, attempted, failed)
	}
	if got := m["ok_ops_ratio"].Value; got != 1 {
		t.Fatalf("ok_ops_ratio = %v, want 1", got)
	}
}

// A restore that comes back with one flipped byte is counted as a failed
// operation: the run is reported as failed, not dropped.
func TestCorruptedRestoreIsCounted(t *testing.T) {
	w := newDurableWorkload(smallDurable)
	w.tamper = func(client int, version int64, data []byte) {
		if client == 1 && version == 5 {
			data[len(data)/2] ^= 0x01
		}
	}
	correct, attempted, failed, m := lastLine(t, runDurable(t, w))
	if correct || failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one failed operation", correct, failed)
	}
	if want := 1 - 1/float64(attempted); m["ok_ops_ratio"].Value != want {
		t.Fatalf("ok_ops_ratio = %v, want %v", m["ok_ops_ratio"].Value, want)
	}
}

// A rank summary that breaks a metrics invariant is counted as a failed
// check by the rtm workloads' post-run checks.
func TestFailedInvariantIsCounted(t *testing.T) {
	cfg := experiments.ShotConfig{Order: rtm.Reverse, GPUsPerNode: 2,
		Combo: experiments.Combo{Approach: experiments.Score, Hints: experiments.AllHints}}
	experiments.Small().Apply(&cfg)
	res, err := experiments.RunShot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(res experiments.ShotResult) *phase {
		w := &rtmWorkload{runs: []shotRun{{kind: "score", cfg: res.Config, res: res}}}
		p := newPhase(nil)
		w.finish(p)
		return p
	}
	if p := check(res); p.failed != 0 {
		t.Fatalf("clean shot: %d failed checks: %v", p.failed, p.errs)
	}
	res.PerRank[1].Summary.LostBytes = res.PerRank[1].Summary.AcceptedBytes + 1 // over-credited fates
	p := check(res)
	if p.failed != 1 || !strings.Contains(strings.Join(p.errs, "\n"), "rank 1 invariants") {
		t.Fatalf("broken invariant: %d failed checks %v, want the rank 1 invariant", p.failed, p.errs)
	}
}

// The hit and miss counts of a replay must add up to its reads.
func TestCellCountMismatchIsCounted(t *testing.T) {
	var tl tally
	tl.check(checkCellCounts("kv/lru", cellResult{hits: 3, misses: 1, reads: 5}))
	if tl.failed != 1 {
		t.Fatalf("failed = %d, want 1", tl.failed)
	}
}

func TestChargeSamples(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      20ms   runtime.memmove
             score/internal/cachebuf.(*Buffer).reserve
             score/internal/core.(*Client).Checkpoint
             main.main
-----------+-------------------------------------------------------
      10ms   runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      30ms   runtime.futex
             runtime.findRunnable
             runtime.schedule
-----------+-------------------------------------------------------
     1.5s   encoding/json.(*decodeState).object
             main.parse
-----------+-------------------------------------------------------
      10ms   score.(*Client).Restart
             score/internal/wavefield.Compress
-----------+-------------------------------------------------------
`)
	got, total, err := chargeSamples(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cachebuf.self_s": 0.02, "runtime.gc_s": 0.01, "runtime.sched_s": 0.03,
		"bench.self_s": 1.5, "score.self_s": 0.01}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
	if d := total - 1.57; d > 1e-9 || d < -1e-9 {
		t.Errorf("total = %v, want 1.57", total)
	}
}

// BENCHMARK.json publishes exactly the metrics the driver prints.
func TestPublishedMetricsMatchDriver(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	res := &result{setup: []time.Duration{time.Second}, plain: newPhase(nil)}
	e2e, _ := res.endToEnd()
	var published []string
	for _, m := range spec.EndToEnd {
		published = append(published, m.Name+" "+m.Unit)
	}
	var printed []string
	for name, m := range e2e {
		printed = append(printed, name+" "+m.Unit)
	}
	sameSet(t, "end_to_end", published, printed)

	published, printed = nil, nil
	for _, m := range spec.PerLayer {
		published = append(published, m.Name+" "+m.Unit)
	}
	for _, m := range perLayerMetrics {
		printed = append(printed, m.name+" "+m.unit)
	}
	sameSet(t, "per_layer", published, printed)

	published, printed = nil, nil
	for _, w := range spec.Workload {
		published = append(published, w.Name)
	}
	printed = sortedKeys(workloads)
	sameSet(t, "workloads", published, printed)
}

func sameSet(t *testing.T, what string, a, b []string) {
	t.Helper()
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("%s: BENCHMARK.json lists\n  %v\nthe driver prints\n  %v", what, a, b)
	}
}

// The p99 statistic is the median of per-block 99th percentiles, so a
// burst of slow calls confined to one block does not move it.
func TestCallSamplesBlockTail(t *testing.T) {
	var c callSamples
	rng := rand.New(rand.NewSource(1))
	for b := 0; b < 3; b++ {
		for _, i := range rng.Perm(tailBlock) {
			d := time.Duration(i) * time.Microsecond // 0..999 µs, shuffled
			if b == 1 && i%10 == 0 {
				d = time.Second // a noisy block
			}
			c.add(d)
		}
	}
	if len(c.blockTails) != 3 {
		t.Fatalf("%d block tails, want 3", len(c.blockTails))
	}
	want := quantile(millis(c.keep[:tailBlock]), 0.99)
	if got := c.p99(); math.Abs(got-want) > 1e-12 || c.blockTails[1] < 100 {
		t.Fatalf("p99 = %v ms (blocks %v), want the clean blocks' %v ms", got, c.blockTails, want)
	}
}
