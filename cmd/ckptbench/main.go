// Command ckptbench regenerates the paper's evaluation: each -exp value
// reruns one table or figure of "GPU-Enabled Asynchronous Multi-level
// Checkpoint Caching and Prefetching" (HPDC '23) on the simulated
// DGX-A100 cluster and prints the corresponding rows.
//
// Usage:
//
//	ckptbench -exp fig5a              # one figure at paper scale
//	ckptbench -exp all -scale small   # everything, 1/16 scale
//	ckptbench -list                   # enumerate experiments
package main

import (
	"flag"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"score"
	"score/internal/experiments"
	"score/internal/metrics"
	"score/internal/report"
	"score/internal/slo"
	"score/internal/trace"
)

var experimentNames = []string{
	"table1", "fig4", "fig5a", "fig5b", "fig6a", "fig6b",
	"fig7", "fig8a", "fig8b", "fig9a", "fig9b", "ablations", "evict",
	"rankfail", "pipeline", "preempt", "migrate", "elastic", "straggler",
}

func main() {
	exp := flag.String("exp", "", "experiment to run: "+strings.Join(experimentNames, ", ")+", or 'all'")
	scaleName := flag.String("scale", "full", "workload scale: full (paper) or small (1/16)")
	list := flag.Bool("list", false, "list experiments and exit")
	metricsOut := flag.String("metrics-out", "", "write the aggregated metrics registry (histograms, counters, sampled series) as JSON to this file")
	promListen := flag.String("prom-listen", "", "serve the metrics registry in Prometheus text format on this address (e.g. :9464); blocks after the experiments finish")
	sample := flag.Duration("sample", 0, "sample tier/link gauges at this simulated interval during every shot (e.g. 100us); series land in -metrics-out")
	chunk := flag.Int64("chunk", 0, "stream multi-hop transfers in chunks of this many bytes, overlapping consecutive hops (0 = monolithic transfers)")
	traceOut := flag.String("trace-out", "", "write each shot's timeline in Chrome trace-event format; the shot label is appended to the name (trace.json -> trace-<label>.json), open in chrome://tracing or ui.perfetto.dev")
	critpathOut := flag.String("critpath-out", "", "write every shot's critical-path attribution records (score-critpath/v1 JSON) to this file")
	failUnattributed := flag.Bool("fail-on-unattributed", false, "exit non-zero if any attribution record carries an unattributed latency gap (instrumentation missed a blocking point)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the experiment run(s) to this file (inspect with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after a final GC) to this file when the run(s) finish")
	benchTime := flag.Duration("benchtime", 0, "repeat the selected experiment(s) until this much wall time has elapsed — stabilizes -cpuprofile samples on fast configs (0 = run once)")
	sloFlag := flag.Bool("slo", false, "evaluate each scenario's checked-in SLO objectives on the virtual clock (burn-rate alerting with critical-path attribution) and print the compliance table")
	sloOut := flag.String("slo-out", "", "write the per-run SLO compliance reports (score-slo/v1 JSON) to this file; implies -slo")
	failSLO := flag.Bool("fail-on-slo", false, "exit non-zero if any objective fired an alert or missed its goal; implies -slo")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `Usage: ckptbench -exp <name> [flags]

Examples:
  ckptbench -exp fig5a                                        # one figure at paper scale
  ckptbench -exp all -scale small                             # everything, 1/16 scale
  ckptbench -exp pipeline -scale small \
      -trace-out trace.json -critpath-out critpath.json       # mono-vs-chunked transfer comparison with
                                                              # per-component latency attribution; writes
                                                              # trace-pipeline-mono.json, trace-pipeline-chunked.json,
                                                              # and the score-critpath/v1 breakdown JSON
  ckptbench -list                                             # enumerate experiments

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, n := range experimentNames {
			fmt.Println(n)
		}
		return
	}

	// Validate the flag set up front: a bad combination exits with a
	// usage error before any (potentially long) experiment runs.
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ckptbench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *exp == "" {
		usageErr("-exp required (use -list to enumerate)")
	}
	if *exp != "all" {
		known := false
		for _, n := range experimentNames {
			if *exp == n {
				known = true
				break
			}
		}
		if !known {
			usageErr("unknown experiment %q (registered: %s, all)", *exp, strings.Join(experimentNames, ", "))
		}
	}
	if *sample < 0 {
		usageErr("-sample must be non-negative (got %v)", *sample)
	}
	if *sample > 0 && *metricsOut == "" && *promListen == "" {
		usageErr("-sample records series only with -metrics-out or -prom-listen; add one or drop -sample")
	}
	if *chunk < 0 {
		usageErr("-chunk must be non-negative (got %d)", *chunk)
	}
	// Output paths are validated before any experiment runs: discovering
	// an unwritable directory after a long sweep would discard its data.
	if *benchTime < 0 {
		usageErr("-benchtime must be non-negative (got %v)", *benchTime)
	}
	for _, out := range []struct{ flag, path string }{
		{"-metrics-out", *metricsOut},
		{"-trace-out", *traceOut},
		{"-critpath-out", *critpathOut},
		{"-cpuprofile", *cpuProfile},
		{"-memprofile", *memProfile},
		{"-slo-out", *sloOut},
	} {
		if out.path == "" {
			continue
		}
		dir := filepath.Dir(out.path)
		if info, err := os.Stat(dir); err != nil || !info.IsDir() {
			usageErr("%s %q: directory %q does not exist", out.flag, out.path, dir)
		}
	}

	var scale experiments.Scale
	switch *scaleName {
	case "full":
		scale = experiments.Full()
	case "small":
		scale = experiments.Small()
	default:
		usageErr("unknown scale %q", *scaleName)
	}

	registry := metrics.NewRegistry()
	var critRuns []report.CritPathRun
	recordMetrics := *metricsOut != "" || *promListen != ""
	collectCritPaths := *critpathOut != "" || *failUnattributed
	if recordMetrics || collectCritPaths {
		experiments.SetShotObserver(func(res experiments.ShotResult) {
			merged := res.MergedSummary()
			if recordMetrics {
				registry.Record(res.Label(), merged)
				if len(res.Series) > 0 {
					registry.RecordSeries(res.Label(), res.Series)
				}
			}
			if collectCritPaths {
				critRuns = append(critRuns, report.CritPathRun{
					Label: res.Label(), Records: merged.CritPaths,
				})
			}
		})
	}
	experiments.SetDefaultSampleInterval(*sample)
	experiments.SetDefaultChunkSize(*chunk)
	sloOn := *sloFlag || *sloOut != "" || *failSLO
	var sloRuns []report.SLORun
	if sloOn {
		experiments.SetSLO(true)
		experiments.SetSLOObserver(func(label string, rep slo.Report) {
			sloRuns = append(sloRuns, report.SLORun{Label: label, Report: rep})
		})
	}
	if *traceOut != "" {
		experiments.SetDefaultTraceSink(func(label string, tr *trace.Tracer) {
			path := tracePath(*traceOut, label)
			if err := writeTrace(path, tr); err != nil {
				fmt.Fprintf(os.Stderr, "ckptbench: writing %s: %v\n", path, err)
				os.Exit(1)
			}
			if ev, cnt := tr.Dropped(); ev > 0 || cnt > 0 {
				fmt.Fprintf(os.Stderr, "ckptbench: warning: %s is incomplete (%d spans, %d counter samples dropped at the retention cap)\n", path, ev, cnt)
			}
			fmt.Printf("wrote trace %s\n", path)
		})
	}
	if *promListen != "" {
		go servePrometheus(*promListen, registry)
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experimentNames
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ckptbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ckptbench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote CPU profile %s\n", *cpuProfile)
		}()
	}
	start := time.Now()
	for {
		for _, name := range names {
			if err := run(name, scale); err != nil {
				fmt.Fprintf(os.Stderr, "ckptbench: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
		if *benchTime <= 0 || time.Since(start) >= *benchTime {
			break
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ckptbench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // settle live-heap numbers before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ckptbench: writing heap profile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote allocation profile %s\n", *memProfile)
	}

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, registry); err != nil {
			fmt.Fprintf(os.Stderr, "ckptbench: writing %s: %v\n", *metricsOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics for %d run(s) to %s\n", registry.Len(), *metricsOut)
	}
	if *critpathOut != "" {
		if err := report.WriteCritPathFile(*critpathOut, critRuns); err != nil {
			fmt.Fprintf(os.Stderr, "ckptbench: writing %s: %v\n", *critpathOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote critical-path attribution for %d run(s) to %s\n", len(critRuns), *critpathOut)
	}
	if sloOn {
		if err := report.SLOTable(sloRuns).Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ckptbench: rendering slo table: %v\n", err)
			os.Exit(1)
		}
		for _, run := range sloRuns {
			for _, w := range run.Report.Warnings {
				fmt.Fprintf(os.Stderr, "ckptbench: warning: %s: %s\n", run.Label, w)
			}
		}
		if *sloOut != "" {
			if err := report.WriteSLOFile(*sloOut, sloRuns); err != nil {
				fmt.Fprintf(os.Stderr, "ckptbench: writing %s: %v\n", *sloOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote slo compliance for %d run(s) to %s\n", len(sloRuns), *sloOut)
		}
		if *failSLO {
			var breached []string
			for _, run := range sloRuns {
				if run.Report.Breached() {
					breached = append(breached, run.Label)
				}
			}
			if len(breached) > 0 {
				fmt.Fprintf(os.Stderr, "ckptbench: slo breached in %d run(s): %s\n",
					len(breached), strings.Join(breached, ", "))
				os.Exit(1)
			}
			fmt.Printf("slo compliance: %d run(s), no alerts fired, no goals missed\n", len(sloRuns))
		}
	}
	if *failUnattributed {
		// The per-rank metrics invariants already fail a shot whose
		// attribution leaves a gap; this re-checks the aggregated export
		// so the artifact itself is the proof.
		var gap time.Duration
		var records int
		for _, run := range critRuns {
			records += len(run.Records)
			gap += metrics.Summary{CritPaths: run.Records}.CritPathUnattributed()
		}
		if gap > 0 {
			fmt.Fprintf(os.Stderr, "ckptbench: unattributed latency gap %v across %d attribution records\n", gap, records)
			os.Exit(1)
		}
		fmt.Printf("attribution complete: 0 unattributed across %d records\n", records)
	}
	if *promListen != "" {
		fmt.Printf("serving Prometheus metrics on %s/metrics (interrupt to exit)\n", *promListen)
		waitForInterrupt()
	}
}

// tracePath derives the per-shot trace filename: base "trace.json" and
// label "pipeline/mono" become "trace-pipeline-mono.json".
func tracePath(base, label string) string {
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, label)
	for strings.Contains(slug, "--") {
		slug = strings.ReplaceAll(slug, "--", "-")
	}
	slug = strings.Trim(slug, "-")
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + slug + ext
}

// writeTrace dumps one shot's Chrome trace to path.
func writeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the registry's JSON export to path.
func writeMetrics(path string, registry *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := registry.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// servePrometheus exposes the registry in Prometheus text exposition
// format; scrapes during the run see the experiments completed so far.
// The mux also serves the net/http/pprof handlers, so a long sweep can
// be profiled live (go tool pprof http://<addr>/debug/pprof/profile)
// without restarting it under -cpuprofile. The handlers are registered
// explicitly: the package's DefaultServeMux side-effect registration
// does not reach this private mux.
func servePrometheus(addr string, registry *metrics.Registry) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := registry.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "ckptbench: -prom-listen: %v\n", err)
		os.Exit(1)
	}
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

func run(name string, scale experiments.Scale) error {
	start := time.Now()
	defer func() {
		fmt.Printf("(%s completed in %v wall time)\n\n", name, time.Since(start).Round(time.Millisecond))
	}()
	switch name {
	case "table1":
		tab := report.NewTable("Table 1 — Compared approaches", "notation", "prefetch hints")
		for _, c := range experiments.Table1() {
			hints := map[experiments.HintMode]string{
				experiments.NoHints: "0", experiments.SingleHint: "1", experiments.AllHints: "All",
			}[c.Hints]
			tab.AddRow(c.Label(), hints)
		}
		return tab.Render(os.Stdout)
	case "fig4":
		stats, err := experiments.Fig4(scale, 32)
		if err != nil {
			return err
		}
		tab := report.NewTable("Fig. 4 — Size distribution of 32 RTM snapshots",
			"snapshot", "min", "avg", "max")
		step := len(stats) / 24
		if step == 0 {
			step = 1
		}
		var avgs []float64
		for i, st := range stats {
			avgs = append(avgs, float64(st.Avg))
			if i%step == 0 {
				tab.AddRow(st.Snapshot, sizeMB(st.Min), sizeMB(st.Avg), sizeMB(st.Max))
			}
		}
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("avg-size curve: %s\n", report.Sparkline(avgs))
		return nil
	case "fig5a":
		return renderFig(experiments.Fig5(scale, true))
	case "fig5b":
		return renderFig(experiments.Fig5(scale, false))
	case "fig6a":
		return renderFig(experiments.Fig6(scale, true))
	case "fig6b":
		return renderFig(experiments.Fig6(scale, false))
	case "fig7":
		fig, err := experiments.Fig7(scale)
		if err != nil {
			return err
		}
		if err := fig.Render(os.Stdout); err != nil {
			return err
		}
		return renderFig7Series(fig)
	case "fig8a":
		return renderFig(experiments.Fig8a(scale, nil))
	case "fig8b":
		return renderFig(experiments.Fig8b(scale, nil))
	case "fig9a":
		return renderFig(experiments.Fig9(scale, true, nil))
	case "fig9b":
		return renderFig(experiments.Fig9(scale, false, nil))
	case "ablations":
		abl, err := experiments.Ablations(scale)
		if err != nil {
			return err
		}
		return abl.Render(os.Stdout)
	case "evict":
		res, err := experiments.EvictionMatrix(scale)
		if err != nil {
			return err
		}
		return res.Render(os.Stdout)
	case "rankfail":
		return runRankFail()
	case "pipeline":
		res, err := experiments.Pipeline(scale)
		if err != nil {
			return err
		}
		return res.Render(os.Stdout)
	case "preempt":
		return runPreempt(scale)
	case "migrate":
		return runMigrate()
	case "elastic":
		return runElastic()
	case "straggler":
		return runStraggler()
	default:
		return fmt.Errorf("unknown experiment %q (registered: %s)", name, strings.Join(experimentNames, ", "))
	}
}

// runPreempt sweeps the preemption grace window and answers the paper's
// operational question — can the ladder drain the backlog (48 GB at full
// scale) before the reclaim lands? — with the deadline-hit rate and
// drain throughput per window, plus one complete drain manifest.
func runPreempt(scale experiments.Scale) error {
	cfg := experiments.PreemptConfig{}
	if scale.Bandwidth != 1 {
		// 1/16-scale backlog with windows shrunk to match, preserving the
		// full sweep's miss-to-hit gradient.
		cfg.Size = 256 << 20
		cfg.Windows = []time.Duration{
			125 * time.Millisecond, 312 * time.Millisecond, 1 * time.Second, 2 * time.Second,
		}
	}
	res, err := experiments.Preemption(cfg)
	if err != nil {
		return err
	}
	backlog := float64(int64(res.Config.Checkpoints)*res.Config.Size) / 1e9
	tab := report.NewTable(
		fmt.Sprintf("Preemption drain — %.0f GB backlog, oldest-durability-first triage", backlog),
		"grace window", "runs", "deadline hits", "hit rate", "durable", "abandoned", "discarded", "GB/s of grace")
	for _, cell := range res.Cells {
		tab.AddRow(
			cell.Window, cell.Runs,
			fmt.Sprintf("%d/%d", cell.DeadlineHits, cell.Runs),
			fmt.Sprintf("%.0f%%", 100*cell.HitRate()),
			sizeMB(cell.DurableBytes),
			sizeMB(cell.AbandonedBytes),
			sizeMB(cell.DiscardedBytes),
			fmt.Sprintf("%.2f", cell.DrainThroughput()),
		)
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	m := res.SampleManifest
	fmt.Printf("sample drain manifest (window %v): %s\n", m.Grace, m)
	for _, e := range m.Entries {
		detail := e.Tier
		if e.Outcome == score.DrainAbandoned {
			detail = e.Reason
		}
		fmt.Printf("  v%-3d %-10s %-16s %-24s t=%v\n", e.Version, sizeMB(e.Size), e.Outcome, detail, e.At)
	}
	return nil
}

// runStraggler sweeps NVMe slowdown severity with hedged restores off
// and on and prints the restore-tail contrast: the gray-failure
// machinery's value is the gap between the two P99 columns at high
// severity (hedge wins racing the PFS replica, or a health quarantine
// routing around the straggler entirely).
func runStraggler() error {
	res, err := experiments.Straggler(experiments.StragglerConfig{})
	if err != nil {
		return err
	}
	backlog := float64(int64(res.Config.Checkpoints)*res.Config.Size) / 1e9
	tab := report.NewTable(
		fmt.Sprintf("Straggler restores — %.1f GB over a silently degraded NVMe link, SSD→PFS hedge ladder", backlog),
		"severity", "mode", "restores", "p50", "p99", "max", "hedges (wins)", "wasted", "stalls (rerouted)", "quarantines")
	for _, c := range res.Cells {
		mode := "unhedged"
		if c.Hedged {
			mode = "hedged"
		}
		tab.AddRow(
			fmt.Sprintf("%g×", c.Severity), mode, c.Restores,
			c.P50, c.P99, c.Max,
			fmt.Sprintf("%d (%d)", c.HedgesLaunched, c.HedgeWins),
			sizeMB(c.HedgeWastedBytes),
			fmt.Sprintf("%d (%d)", c.StallsDetected, c.StallsRerouted),
			c.HealthQuarantines,
		)
	}
	return tab.Render(os.Stdout)
}

// runMigrate runs the live-migration scenario twice — clean and with an
// injected copy fault — and prints the cutover outcomes side by side.
func runMigrate() error {
	tab := report.NewTable("Live migration — SSD tier to successor node, racing foreground traffic",
		"copy fault", "versions", "live rounds", "final validated", "migrated", "faults fired", "restored", "bit-exact")
	for _, inject := range []bool{false, true} {
		root, err := os.MkdirTemp("", "ckptbench-migrate-*")
		if err != nil {
			return err
		}
		res, err := experiments.Migration(experiments.MigrateConfig{
			StoreRoot:   root,
			InjectFault: inject,
		})
		os.RemoveAll(root)
		if err != nil {
			return err
		}
		tab.AddRow(
			map[bool]string{false: "off", true: "injected"}[inject],
			res.Versions,
			res.Live.Rounds,
			map[bool]string{false: "NO", true: "yes"}[res.Final.Validated],
			sizeMB(res.MigratedBytes),
			res.InjectedFaults,
			fmt.Sprintf("%d/%d", res.RestoredVersions, res.Versions),
			map[bool]string{false: "NO", true: "yes"}[res.Recoverable],
		)
	}
	return tab.Render(os.Stdout)
}

// runElastic re-shards checkpoint state across membership changes in both
// directions and prints the recomputed frontier and restore outcomes.
func runElastic() error {
	tab := report.NewTable("Elastic restart — re-shard N ranks onto M at a new membership epoch",
		"transition", "epoch", "committed", "frontier", "tracker consistent", "shards restored", "recoverable")
	for _, tr := range []struct{ from, to int }{{4, 2}, {2, 3}} {
		root, err := os.MkdirTemp("", "ckptbench-elastic-*")
		if err != nil {
			return err
		}
		res, err := experiments.Elastic(experiments.ElasticConfig{
			StoreRoot: root,
			FromRanks: tr.from,
			ToRanks:   tr.to,
		})
		os.RemoveAll(root)
		if err != nil {
			return err
		}
		tab.AddRow(
			fmt.Sprintf("%d -> %d ranks", res.FromRanks, res.ToRanks),
			res.Epoch,
			res.Committed,
			fmt.Sprintf("v%d", res.Frontier),
			map[bool]string{false: "NO", true: "yes"}[res.TrackerConsistent],
			fmt.Sprintf("%d/%d", res.RestoredShards, res.FromRanks),
			map[bool]string{false: "NO", true: "yes"}[res.Recoverable],
		)
	}
	return tab.Render(os.Stdout)
}

func renderFig(fig experiments.FigureResult, err error) error {
	if err != nil {
		return err
	}
	return fig.Render(os.Stdout)
}

// renderFig7Series prints the per-timestep restore rate and prefetch
// distance curves (downsampled) for each hint budget.
func renderFig7Series(fig experiments.FigureResult) error {
	for _, hints := range []string{"No hints", "Single hint", "All hints"} {
		series := fig.Series[hints]
		if len(series) == 0 {
			continue
		}
		tab := report.NewTable(fmt.Sprintf("Fig. 7 series — %s (Score)", hints),
			"iteration", "restore rate", "next prefetches completed")
		step := len(series) / 16
		if step == 0 {
			step = 1
		}
		var rates, dists []float64
		for i, p := range series {
			rate := float64(p.Bytes) / maxSeconds(p.Blocked)
			rates = append(rates, rate)
			dists = append(dists, float64(p.PrefetchDistance))
			if i%step == 0 {
				tab.AddRow(p.Iteration, metrics.FormatBytesPerSec(rate), p.PrefetchDistance)
			}
		}
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("restore-rate curve:     %s\n", report.Sparkline(rates))
		fmt.Printf("prefetch-distance curve: %s\n\n", report.Sparkline(dists))
	}
	return nil
}

// runRankFail runs the cluster failure scenario twice — with and without
// partner-copy replication — and prints the recovery outcomes side by
// side: a full-node kill mid-flush is survivable only with replication.
func runRankFail() error {
	tab := report.NewTable("Rank failure — node kill mid-flush, restart from LatestConsistent()",
		"partner copy", "ranks killed", "commit lag", "partner bytes", "recoverable", "restored version", "ranks restored")
	for _, partner := range []bool{false, true} {
		root, err := os.MkdirTemp("", "ckptbench-rankfail-*")
		if err != nil {
			return err
		}
		res, err := experiments.RankFailure(experiments.RankFailConfig{
			StoreRoot:   root,
			PartnerCopy: partner,
		})
		os.RemoveAll(root)
		if err != nil {
			return err
		}
		restored := "—"
		if res.Recoverable {
			restored = fmt.Sprintf("v%d", res.LatestConsistent)
		}
		tab.AddRow(
			map[bool]string{false: "off", true: "on"}[partner],
			len(res.Killed), res.CommitLag,
			sizeMB(res.PartnerCopyBytes),
			map[bool]string{false: "NO", true: "yes"}[res.Recoverable],
			restored,
			fmt.Sprintf("%d/%d", res.RestoredRanks, res.Ranks),
		)
	}
	return tab.Render(os.Stdout)
}

func maxSeconds(d time.Duration) float64 {
	s := d.Seconds()
	if s <= 0 {
		return 1e-9
	}
	return s
}

func sizeMB(b int64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }
