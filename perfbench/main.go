// Command perfbench is the repository benchmark: a single-process driver
// that runs one named workload against the module's packages for a fixed
// host-time budget, checks every output, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON object
// on the last line of standard output.
//
//	bash perfbench/run.sh --workload rtm-scaleout --seed 1 --seconds 25 --trace 0
//
// The driver only calls the program: layers are measured from outside,
// by timing the driver's calls into each layer and by reading the
// counters each layer already exposes. README.md records the workloads,
// the metrics and the layer each workload isolates.
//
// Two kinds of time appear and are never mixed: host time (time on the
// benchmark machine, mostly process CPU time; see cpuTime) and simulated
// time (virtual-clock time: sim_* metrics and core.* waits).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark input set. setup builds the inputs
// from the seed and is timed (repeatedly) by the driver; iterate runs
// one closed-loop pass over them; finish runs the post-loop checks and
// derives the phase's simulated and per-layer figures.
type workload interface {
	setup(seed int64, work string) error
	iterate(p *phase)
	finish(p *phase)
}

var workloads = map[string]func() workload{
	"rtm-scaleout":      func() workload { return &rtmWorkload{observed: false} },
	"rtm-observed":      func() workload { return &rtmWorkload{observed: true} },
	"evict-replay":      func() workload { return &evictWorkload{} },
	"durable-realbytes": func() workload { return newDurableWorkload(defaultDurableConfig) },
}

// setupRepeats is how many times set-up runs per process; setup_s is
// their median.
const setupRepeats = 5

func main() {
	name := flag.String("workload", "", "workload to run: rtm-scaleout, rtm-observed, evict-replay, durable-realbytes")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 25, "wall-clock seconds the timed phase runs for")
	traced := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for work files, profiles and span logs")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload <name> -seed <n> -seconds <s> -trace <0|1> (workload %q)\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(mk(), *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// runWorkload sets up w, runs its timed phase (untraced, then traced for
// a traced run) and assembles the result. An error means the run could
// not be made at all; failed operations are counted, not returned.
func runWorkload(w workload, name string, seed int64, budget time.Duration, traced bool, out string) (*result, error) {
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(work)

	res := &result{workload: name, seed: seed}
	// Set-up is timed in CPU time (see cpuTime); the first repetition
	// counts from process start.
	var start time.Duration
	for i := 0; i < setupRepeats; i++ {
		if err := w.setup(seed, work); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		now := cpuTime()
		res.setup = append(res.setup, now-start)
		start = now
	}

	if !traced {
		res.plain = measure(w, budget, nil)
		return res, nil
	}
	// A traced run measures an untraced half first, so the tracing
	// overhead (bench.trace_overhead_x) compares like with like.
	res.plain = measure(w, budget/2, nil)
	prof, err := startProfile(out, name)
	if err != nil {
		return nil, err
	}
	res.traced = measure(w, budget/2, newSpanLog())
	if err := prof.stop(res.traced); err != nil {
		return nil, err
	}
	if err := res.traced.spans.write(filepath.Join(out, fmt.Sprintf("spans-%s-%d.csv", name, seed))); err != nil {
		return nil, err
	}
	return res, nil
}

// measure runs w's closed loop for budget and then its checks. A new
// iteration starts only if it is expected to end within the budget, so a
// run's length stays close to the budget; at least one always runs.
func measure(w workload, budget time.Duration, spans *spanLog) *phase {
	p := newPhase(spans)
	start, cpuStart := time.Now(), cpuTime()
	for {
		// Each iteration starts from a collected heap returned to the OS,
		// with the peak-RSS mark reset, so garbage left by the previous
		// one moves neither this one's cost nor its peak memory.
		debug.FreeOSMemory()
		resetPeakRSS()
		iterStart, iterCPU, opsBefore := time.Now(), cpuTime(), p.ops
		w.iterate(p)
		p.iters++
		p.iterRates = append(p.iterRates, float64(p.ops-opsBefore)/(cpuTime()-iterCPU).Seconds())
		p.iterPeakRSS = append(p.iterPeakRSS, peakRSSMB())
		iterWall := time.Since(iterStart)
		if time.Since(start)+iterWall/2 >= budget {
			break
		}
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-cpuStart
	w.finish(p)
	return p
}

// phase accumulates one timed phase's measurements.
type phase struct {
	spans *spanLog // nil when untraced

	tally
	iters int
	wall  time.Duration
	cpu   time.Duration // process CPU time (user+sys) of the phase
	// iterRates holds each iteration's completed ops per CPU second
	// (ops_per_cpu_s is their median, which one slow iteration cannot
	// move) and iterPeakRSS its peak resident set (peak_rss_mb is their
	// maximum: within an iteration the peak swings by a quarter with where
	// the garbage collector's cycles fall, and the largest is the stable
	// figure).
	iterRates, iterPeakRSS []float64
	// ops counts completed checkpoint+restore calls (cache accesses in
	// evict-replay); ckpt and restart sample host time per call.
	ops           int64
	ckpt, restart callSamples

	sim simTotals
	// digests maps an output kind (shot, cell, client) to the distinct
	// digests its simulated outputs produced across iterations.
	digests map[string]map[string]bool
	// layer holds the per-layer metrics the workload derives itself.
	layer map[string]float64
}

func newPhase(spans *spanLog) *phase {
	return &phase{spans: spans, digests: map[string]map[string]bool{}, layer: map[string]float64{}}
}

// digest records one simulated-output digest under kind.
func (p *phase) digest(kind, d string) {
	if p.digests[kind] == nil {
		p.digests[kind] = map[string]bool{}
	}
	p.digests[kind][d] = true
}

// simTotals pools simulated figures with the paper's aggregate-ratio
// definition: total bytes over total blocking time.
type simTotals struct {
	ckptBytes, restoreBytes     float64
	ckptBlocked, restoreBlocked float64 // simulated seconds
	makespans                   []float64
	hits, reads                 int64
}

// tally counts operations and checks attempted and failed; the first few
// failures are kept for the report.
type tally struct {
	attempted, failed int64
	errs              []string
}

// check counts one attempted operation or check, failed when err != nil.
func (t *tally) check(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

// merge adds another tally's counts and failures.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 8 {
			t.errs = append(t.errs, e)
		}
	}
}

// checkN counts n operations that all failed or all succeeded together.
func (t *tally) checkN(n int64, err error) {
	t.attempted += n - 1
	if err != nil {
		t.failed += n - 1
	}
	t.check(err)
}

// result is one process's run record.
type result struct {
	workload string
	seed     int64
	setup    []time.Duration
	plain    *phase // untraced timed phase: the end-to-end metrics
	traced   *phase // traced phase of a traced run: the per-layer metrics
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics, with their sample counts,
// from the untraced phase.
func (r *result) endToEnd() (map[string]metric, map[string]int) {
	p := r.plain
	m := map[string]metric{}
	n := map[string]int{}
	put := func(name string, v float64, unit string, samples int) {
		m[name] = metric{v, unit}
		n[name] = samples
	}
	put("setup_s", median(seconds(r.setup)), "s", len(r.setup))
	put("ops_per_cpu_s", median(p.iterRates), "1/cpu-s", len(p.iterRates))
	put("ckpt_call_p50_ms", p.ckpt.p50(), "ms", int(p.ckpt.seen))
	put("restart_call_p50_ms", p.restart.p50(), "ms", int(p.restart.seen))
	put("peak_rss_mb", quantile(p.iterPeakRSS, 1), "MB", len(p.iterPeakRSS))
	put("sim_ckpt_gbps", p.sim.ckptBytes/p.sim.ckptBlocked/1e9, "GB/s", p.iters)
	put("sim_restore_gbps", p.sim.restoreBytes/p.sim.restoreBlocked/1e9, "GB/s", p.iters)
	put("sim_makespan_s", median(p.sim.makespans), "s", len(p.sim.makespans))
	put("sim_hit_ratio", float64(p.sim.hits)/float64(p.sim.reads), "ratio", int(p.sim.reads))
	put("ok_ops_ratio", 1-float64(p.failed)/float64(p.attempted), "ratio", int(p.attempted))
	return m, n
}

// perLayerMetrics lists every per-layer metric a traced run prints, with
// its unit. A metric a workload does not exercise reads 0 (for example
// payload.* on the rtm workloads, whose payloads are virtual). The
// <layer>.self_s figures are host CPU seconds from the profile. The call
// tails are here rather than end to end: on the shared benchmark machine
// they swing several-fold with other tenants' load, too far to gate on.
var perLayerMetrics = func() []struct{ name, unit string } {
	list := []struct{ name, unit string }{
		{"ckpt_call_p99_ms", "ms"}, {"restart_call_p99_ms", "ms"},
		{"simclock.wakeups", "count"}, {"simclock.wakeups_per_op", "1/op"},
		{"core.wait.xfer-pcie_s", "s"}, {"core.wait.xfer-ssd_s", "s"}, {"core.wait.xfer-pfs_s", "s"},
		{"cachebuf.evictions", "count"}, {"cachebuf.reserve_p50_us", "us"}, {"cachebuf.reserve_p99_us", "us"},
		{"core.wait.gpu-admit_s", "s"}, {"core.wait.host-admit_s", "s"},
		{"core.ckpt_blocked_p50_ms", "ms"}, {"core.ckpt_blocked_p99_ms", "ms"},
		{"core.restore_blocked_p50_ms", "ms"}, {"core.restore_blocked_p99_ms", "ms"},
		{"core.wait.queue-d2h_s", "s"}, {"core.wait.queue-h2f_s", "s"}, {"core.wait.promote-wait_s", "s"},
		{"core.wait.alloc_s", "s"},
		{"payload.bytes_hashed", "bytes-computed"},
		{"ckptstore.bytes_on_disk", "bytes"}, {"ckptstore.files", "count"},
		{"metrics.series_points", "count"}, {"metrics.export_mb", "MB"},
		{"trace.export_mb", "MB"}, {"trace.dropped", "count"},
		{"slo.alerts_fired", "count"}, {"report.export_s", "s"},
		{"telemetry.overhead_x", "x"}, {"telemetry.sim_makespan_drift_s", "s"},
		{"experiments.shot_s.score", "s"}, {"experiments.shot_s.uvm", "s"}, {"experiments.shot_s.adios2", "s"},
		{"experiments.shot_sum_over_wall", "ratio"},
		{"uvmsim.sim_restore_gbps", "GB/s"}, {"adiossim.sim_restore_gbps", "GB/s"},
		{"runtime.gc_s", "s"}, {"runtime.sched_s", "s"}, {"bench.self_s", "s"}, {"profile.cpu_s", "s"},
		{"runtime.alloc_mb", "MB"}, {"runtime.mallocs_per_op", "1/op"}, {"runtime.gc_cycles", "count"},
		{"bench.trace_overhead_x", "x"}, {"sim.distinct_digests", "count"},
	}
	for _, pol := range evictPolicies {
		list = append(list, struct{ name, unit string }{"cachebuf.hit_ratio." + pol, "ratio"})
	}
	for _, l := range profiledLayers {
		list = append(list, struct{ name, unit string }{l + ".self_s", "s"})
	}
	return list
}()

// perLayer derives the per-layer metrics from the traced phase.
func (r *result) perLayer() map[string]metric {
	p := r.traced
	p.layer["ckpt_call_p99_ms"] = p.ckpt.p99()
	p.layer["restart_call_p99_ms"] = p.restart.p99()
	p.layer["bench.trace_overhead_x"] = (p.cpu.Seconds() / float64(p.ops)) /
		(r.plain.cpu.Seconds() / float64(r.plain.ops))
	for _, ds := range p.digests {
		p.layer["sim.distinct_digests"] = math.Max(p.layer["sim.distinct_digests"], float64(len(ds)))
	}
	m := map[string]metric{}
	var charged float64 // profile samples charged to published buckets
	for _, lm := range perLayerMetrics {
		v := p.layer[lm.name]
		m[lm.name] = metric{v, lm.unit}
		delete(p.layer, lm.name)
		if strings.HasSuffix(lm.name, ".self_s") || lm.name == "runtime.gc_s" || lm.name == "runtime.sched_s" {
			charged += v
		}
	}
	for _, name := range sortedKeys(p.layer) {
		p.check(fmt.Errorf("per-layer metric %s is not in the published list", name))
	}
	// Every profile sample must be accounted for by the published
	// per-layer self times and runtime buckets.
	if total := m["profile.cpu_s"].Value; math.Abs(charged-total) > 1e-6 {
		p.check(fmt.Errorf("profile: published buckets hold %.3fs of %.3fs sampled", charged, total))
	} else {
		p.check(nil)
	}
	return m
}

// print writes the human-readable report, then the result line last.
func (r *result) print(w io.Writer) {
	phases := []*phase{r.plain}
	metrics, samples := r.endToEnd()
	if r.traced != nil {
		phases = append(phases, r.traced)
		metrics, samples = r.perLayer(), nil
	}
	var attempted, failed int64
	for _, p := range phases {
		attempted += p.attempted
		failed += p.failed
		for _, e := range p.errs {
			fmt.Fprintf(w, "FAILED: %s\n", e)
		}
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// JSON has no NaN or Inf: a metric without samples reads 0
			// and fails the run.
			fmt.Fprintf(w, "FAILED: metric %s has no value\n", name)
			metrics[name] = metric{0, v.Unit}
			attempted++
			failed++
		}
	}
	fmt.Fprintf(w, "workload %s seed %d: %d iteration(s) in %.2fs wall, %.2fs CPU, %d ops; %d of %d operations and checks failed (failed_ops_ratio %g)\n",
		r.workload, r.seed, r.plain.iters, r.plain.wall.Seconds(), r.plain.cpu.Seconds(), r.plain.ops, failed, attempted, float64(failed)/float64(attempted))
	for _, name := range sortedKeys(metrics) {
		fmt.Fprintf(w, "  %-36s %16.6g %-14s", name, metrics[name].Value, metrics[name].Unit)
		if n, ok := samples[name]; ok {
			fmt.Fprintf(w, " samples=%d", n)
		}
		fmt.Fprintln(w)
	}
	if b, err := json.Marshal(map[string]any{"workload": r.workload, "seed": r.seed,
		"iterations": r.plain.iters, "sim_digests": digestList(phases)}); err == nil {
		fmt.Fprintf(w, "run record: %s\n", b)
	}

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// digestList gathers the run's simulated-output digests for the record.
// The same inputs are replayed every iteration, so more than one digest
// per kind means the simulated outputs were not deterministic.
func digestList(phases []*phase) map[string][]string {
	seen := map[string]map[string]bool{}
	for _, p := range phases {
		for kind, ds := range p.digests {
			if seen[kind] == nil {
				seen[kind] = map[string]bool{}
			}
			for d := range ds {
				seen[kind][d] = true
			}
		}
	}
	out := map[string][]string{}
	for kind, ds := range seen {
		out[kind] = sortedKeys(ds)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
