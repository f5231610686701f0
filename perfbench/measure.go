package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"score/internal/simclock"
)

// ---------------------------------------------------------------------------
// Order statistics.

// callSamples keeps per-call host times: a uniform sample of at most
// sampleCap of them (reservoir sampling), so the benchmark's own memory
// stays fixed however many calls a run makes, and the 99th percentile of
// every block of tailBlock consecutive calls. Every call is timed and
// counted.
type callSamples struct {
	seen int64
	keep []time.Duration
	rng  *rand.Rand

	top        []time.Duration // the current block's tailKeep largest, ascending
	inBlock    int
	blockTails []float64 // ms
}

const (
	sampleCap = 1 << 18
	// tailBlock calls leave ten beyond their 99th percentile, which lies
	// between the block's 11th and 10th largest.
	tailBlock = 1000
	tailKeep  = 11
)

func (c *callSamples) add(d time.Duration) {
	c.seen++
	if c.keep == nil {
		c.keep = make([]time.Duration, 0, sampleCap)
		c.rng = rand.New(rand.NewSource(1))
	}
	if len(c.keep) < sampleCap {
		c.keep = append(c.keep, d)
	} else if i := c.rng.Int63n(c.seen); i < sampleCap {
		c.keep[i] = d
	}

	if len(c.top) < tailKeep {
		c.top = append(c.top, d)
		for i := len(c.top) - 1; i > 0 && c.top[i-1] > c.top[i]; i-- {
			c.top[i-1], c.top[i] = c.top[i], c.top[i-1]
		}
	} else if d > c.top[0] {
		c.top[0] = d
		for i := 0; i+1 < len(c.top) && c.top[i] > c.top[i+1]; i++ {
			c.top[i], c.top[i+1] = c.top[i+1], c.top[i]
		}
	}
	if c.inBlock++; c.inBlock == tailBlock {
		p99 := c.top[0] + (c.top[1]-c.top[0])/100 // quantile's interpolation at 0.99
		c.blockTails = append(c.blockTails, float64(p99)/float64(time.Millisecond))
		c.top, c.inBlock = c.top[:0], 0
	}
}

// p50 is the median call time in ms.
func (c *callSamples) p50() float64 { return quantile(millis(c.keep), 0.5) }

// p99 is the *_p99 statistic in ms: the median over blocks of 1000
// consecutive calls of each block's 99th percentile, so a burst of
// machine noise moves one block, not the figure. A run with fewer calls
// than a block reports the highest percentile that leaves ten calls
// beyond it, or the largest call when there are 20 or fewer.
func (c *callSamples) p99() float64 {
	if len(c.blockTails) > 0 {
		return median(c.blockTails)
	}
	return tailQuantile(millis(c.keep))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest percentile up to the 99th that leaves at
// least ten samples beyond it, or the maximum when there are too few
// samples for any.
func tailQuantile(xs []float64) float64 {
	n := float64(len(xs))
	switch {
	case n >= 1000:
		return quantile(xs, 0.99)
	case n > 20:
		return quantile(xs, 1-10/n)
	}
	return quantile(xs, 1)
}

// cpuTime is the process's CPU time so far (user+sys, all threads).
// Throughput is taken per CPU second, not per wall second: on a shared
// virtual machine the hypervisor steals wall time in bursts (measured
// on the 2-vCPU benchmark machine: one Score shot took 7.8-9.0 s wall
// but 6.4-6.8 s CPU, with 5-7 s stolen).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak resident set size mark at the
// current size. Where /proc/self/clear_refs is not writable the mark
// keeps counting from process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) since
// start or the last resetPeakRSS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory around every call the driver makes into a
// layer, written out when the run ends. A nil *spanLog records nothing.

type span struct {
	parent     int32 // index of the enclosing span, -1 at top level
	id         int32 // spans of one rank, client or cell share an id
	name       uint16
	start, end int64 // ns since the log began
}

type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	names []string
	index map[string]uint16
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), index: map[string]uint16{}} }

// begin opens a span and returns its handle for end (-1 on a nil log).
func (l *spanLog) begin(name string, id, parent int32) int32 {
	if l == nil {
		return -1
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.index[name]
	if !ok {
		n = uint16(len(l.names))
		l.index[name] = n
		l.names = append(l.names, name)
	}
	l.spans = append(l.spans, span{parent: parent, id: id, name: n, start: now, end: -1})
	return int32(len(l.spans) - 1)
}

// end closes the span h.
func (l *spanLog) end(h int32) {
	if l == nil || h < 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[h].end = now
}

// durations returns the durations of every closed span named name.
func (l *spanLog) durations(name string) []time.Duration {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.index[name]
	if !ok {
		return nil
	}
	var out []time.Duration
	for _, s := range l.spans {
		if s.name == n && s.end >= 0 {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// write saves the log as CSV: index, parent, id, name, start_ns, end_ns.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,parent,id,name,start_ns,end_ns")
	for i, s := range l.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.id, l.names[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span log: %w", err)
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// CPU profile of the traced phase, charged to layers.

// profiledLayers are the module's packages the workloads reach; each gets
// a <layer>.self_s metric. "score" is the public API package; samples
// whose innermost score frame is in any other package land in other.
var profiledLayers = []string{
	"score", "simclock", "fabric", "cachebuf", "core", "lifecycle", "device",
	"payload", "ckptstore", "metrics", "trace", "slo", "report",
	"experiments", "uvmsim", "adiossim", "rtm", "other",
}

type profiler struct {
	path   string
	f      *os.File
	mem    runtime.MemStats
	events uint64
}

func startProfile(out, name string) (*profiler, error) {
	p := &profiler{path: filepath.Join(out, "cpu-"+name+".pprof")}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p.f = f
	runtime.ReadMemStats(&p.mem)
	p.events = simclock.EventCount()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and fills ph's runtime, simclock and per-layer
// self-time metrics.
func (p *profiler) stop(ph *phase) error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	wakeups := float64(simclock.EventCount() - p.events)
	ops := float64(ph.ops)
	ph.layer["simclock.wakeups"] = wakeups
	ph.layer["simclock.wakeups_per_op"] = wakeups / ops
	ph.layer["runtime.alloc_mb"] = float64(mem.TotalAlloc-p.mem.TotalAlloc) / (1 << 20)
	ph.layer["runtime.mallocs_per_op"] = float64(mem.Mallocs-p.mem.Mallocs) / ops
	ph.layer["runtime.gc_cycles"] = float64(mem.NumGC - p.mem.NumGC)

	out, err := exec.Command("go", "tool", "pprof", "-traces", p.path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	buckets, total, err := chargeSamples(out)
	if err != nil {
		return err
	}
	for name, v := range buckets {
		ph.layer[name] = v
	}
	ph.layer["profile.cpu_s"] = total
	return nil
}

// chargeSamples parses `go tool pprof -traces` output and charges each
// sample, by metric name, to the package of its innermost score frame
// (<layer>.self_s), to bench.self_s for the driver's own frames, to
// runtime.gc_s for garbage-collector stacks and to runtime.sched_s for
// the rest (scheduler park/unpark handoffs).
func chargeSamples(out []byte) (buckets map[string]float64, total float64, err error) {
	buckets = map[string]float64{}
	known := map[string]bool{}
	for _, l := range profiledLayers {
		known[l] = true
	}
	var value float64
	var frames []string
	flush := func() {
		if frames == nil {
			return
		}
		total += value
		buckets[bucketOf(frames, known)] += value
		frames = nil
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 || frames == nil && len(f) < 2 {
			continue
		}
		if frames == nil {
			// First line of a sample: "<value> <innermost frame>".
			d, perr := time.ParseDuration(f[0])
			if perr != nil {
				continue // header lines
			}
			value = d.Seconds()
			frames = []string{f[1]}
			continue
		}
		frames = append(frames, f[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("parsing pprof traces: %w", err)
	}
	return buckets, total, nil
}

// bucketOf names the bucket for one stack, innermost frame first.
func bucketOf(frames []string, known map[string]bool) string {
	for _, fn := range frames {
		if pkg, ok := scorePackage(fn); ok {
			if known[pkg] {
				return pkg + ".self_s"
			}
			return "other.self_s"
		}
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "main.") {
			return "bench.self_s"
		}
	}
	for _, fn := range frames {
		if strings.Contains(fn, "runtime.gc") || strings.Contains(fn, "runtime.bgsweep") ||
			strings.Contains(fn, "runtime.bgscavenge") || strings.Contains(fn, "runtime.markroot") {
			return "runtime.gc_s"
		}
	}
	return "runtime.sched_s"
}

// scorePackage maps a frame's function name to its package in this
// module: "score/internal/cachebuf.(*Buffer).reserve" -> "cachebuf",
// "score.(*Client).Checkpoint" -> "score".
func scorePackage(fn string) (string, bool) {
	switch {
	case strings.HasPrefix(fn, "score/internal/"):
		rest := fn[len("score/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i], true
		}
		return rest, true
	case strings.HasPrefix(fn, "score."):
		return "score", true
	}
	return "", false
}
