// Package metrics collects the performance measurements the paper's
// evaluation reports: application-observed checkpoint and restore
// throughput (total bytes divided by blocking time, §5.4.1), per-iteration
// restore rate, prefetch distance (§5.4.4), and I/O wait time.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder accumulates measurements for one process (one GPU).
// All methods are safe for concurrent use.
//
// The hot counters are plain atomics and the histograms have atomic
// buckets (sharded.go), so the many tasks of one rank — application,
// flush workers, prefetcher, stager — never serialize on a registry
// mutex. Every hot update is a commutative integer add, which keeps
// totals independent of same-instant task interleaving (the determinism
// contract). The mutex guards only the cold structured state: series
// appends, per-tier maps, and critical-path records.
type Recorder struct {
	ckptBytes   atomic.Int64
	ckptBlocked atomic.Int64 // ns
	ckptOps     atomic.Int64

	restBytes   atomic.Int64
	restBlocked atomic.Int64 // ns
	restOps     atomic.Int64

	evictionWait   atomic.Int64 // ns
	deviationReads atomic.Int64 // restores that deviated from the hint order

	// Robustness counters (fault injection / degradation).
	fallbackReads atomic.Int64 // reads served from a deeper tier after a faster one failed
	repopulations atomic.Int64 // lost/corrupt replicas re-staged into a faster tier
	flushAborts   atomic.Int64 // flush chains abandoned after exhausting every route
	syncFlushes   atomic.Int64 // checkpoints that fell back to synchronous flush (§2 cond. 4)

	// Cluster failure model: partner-copy replication and rank deaths.
	partnerCopies       atomic.Int64 // replicas staged on the partner node's SSD
	partnerCopyBytes    atomic.Int64
	partnerCopyFailures atomic.Int64 // replication attempts that failed
	rankDeaths          atomic.Int64 // injected kills of this rank (0 or 1)

	// Scheduling events: deadline-bounded drain and live migration.
	drains                 atomic.Int64 // preemption drains initiated (0 or 1 per client)
	drainDeadlineHits      atomic.Int64 // drains whose last triage flush landed inside the grace window
	drainedVersions        atomic.Int64 // versions a drain made durable
	drainedBytes           atomic.Int64
	drainAbandonedVersions atomic.Int64 // versions a drain failed open to ErrLost
	drainAbandonedBytes    atomic.Int64
	migrations             atomic.Int64 // live migrations attempted
	migratedVersions       atomic.Int64 // store versions copied to the successor node
	migratedBytes          atomic.Int64
	migrationFailures      atomic.Int64 // per-version migration copies that failed

	// Chunked transfer pipelining (§4.3): per-stream overlap accounting.
	pipelinedStreams atomic.Int64
	pipelinedBytes   atomic.Int64
	pipelinedElapsed atomic.Int64 // ns; end-to-end stream durations
	pipelinedHopBusy atomic.Int64 // ns; summed per-hop occupancy

	// Per-hop byte conservation for complete pipelined streams: every hop
	// of an error-free stream must carry exactly the payload size.
	pipelinedHopBytes     atomic.Int64 // observed per-hop bytes, summed
	pipelinedHopBytesWant atomic.Int64 // payload size × hop count

	// Conservation (fate) accounting: every byte accepted into the
	// checkpoint pipeline must end up exactly one of durable, discarded
	// (consumed before flush, §2 cond. 5) or lost (flush chain aborted).
	// CheckInvariants enforces the balance.
	acceptedBytes  atomic.Int64
	durableBytes   atomic.Int64
	discardedBytes atomic.Int64
	lostBytes      atomic.Int64

	// Retry bouts: one bout = one retried I/O sequence (>=1 retries). A
	// bout either recovers (the operation eventually succeeds) or exhausts
	// its attempts; CheckInvariants ties bouts to the per-retry counters.
	retryBoutsRecovered atomic.Int64
	retryBoutsExhausted atomic.Int64

	// Gray-failure tolerance: hedged restores and stalled-flush reroutes
	// (DESIGN.md §16). A hedge is a concurrent read of the next-deeper
	// replica launched when the preferred tier exceeds its adaptive
	// deadline; a stall is a background flush leg that exceeded its
	// deadline and was re-routed to an alternate durable tier.
	hedgesLaunched    atomic.Int64 // hedge legs launched after a deadline breach
	hedgeWins         atomic.Int64 // reads won by a hedge leg (not the preferred tier)
	hedgeWastedBytes  atomic.Int64 // bytes moved by legs that lost the race
	stallsDetected    atomic.Int64 // flush legs that exceeded their adaptive deadline
	stallsRerouted    atomic.Int64 // stalled flushes successfully re-routed to an alternate tier
	healthQuarantines atomic.Int64 // tiers quarantined by an EWMA health-score breach

	// SLO burn-rate alert transitions (internal/slo, DESIGN.md §17) and
	// telemetry-drop gauges mirrored from the bounded tracer and
	// flight-recorder rings so lost observability is itself observable.
	sloAlertsFired       atomic.Int64
	sloAlertsResolved    atomic.Int64
	traceEventsDropped   atomic.Int64
	traceCountersDropped atomic.Int64
	ledgerEventsDropped  atomic.Int64

	// durableOps counts ConserveDurable calls so CheckInvariants can tie
	// the critical-path record count to the fate accounting.
	durableOps atomic.Int64

	// Fixed-boundary latency histograms, keyed by the Hist* constants.
	// Lock-free observes, copy-on-write name registry (sharded.go).
	hists histRegistry

	// Cold structured state: series appends, per-tier maps, and
	// critical-path attribution records (see critpath.go).
	mu             sync.Mutex
	restoreSeries  []SeriesPoint // per-operation series, in issue order
	prefetchDist   []int
	retries        map[string]int64 // tier name -> retried I/O attempts
	degradations   map[string]int64 // tier name -> times marked degraded
	tierRecoveries map[string]int64 // tier name -> degradations healed by a probe
	critPaths      []CritPathRecord
}

// ObserveDuration records one duration sample into the named
// fixed-boundary histogram (see the Hist* constants). Lock-free after
// the name's first observation.
func (r *Recorder) ObserveDuration(name string, d time.Duration) {
	r.hists.get(name).Observe(d)
}

// SeriesPoint is one restore operation's measurement.
type SeriesPoint struct {
	// Iteration is the restore index within the shot.
	Iteration int
	// Bytes restored by this operation.
	Bytes int64
	// Blocked is the application-observed blocking time.
	Blocked time.Duration
	// PrefetchDistance is the number of successor checkpoints already
	// resident on the fastest tier when this restore was issued.
	PrefetchDistance int
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Checkpoint records one checkpoint operation that moved bytes and blocked
// the application for blocked.
func (r *Recorder) Checkpoint(bytes int64, blocked time.Duration) {
	r.ckptBytes.Add(bytes)
	r.ckptBlocked.Add(int64(blocked))
	r.ckptOps.Add(1)
	r.ObserveDuration(HistCheckpoint, blocked)
}

// CheckpointAccepted records bytes entering the flush pipeline. Paired
// with exactly one of ConserveDurable, ConserveDiscarded, ConserveLost or
// CheckpointRejected per checkpoint.
func (r *Recorder) CheckpointAccepted(bytes int64) {
	r.acceptedBytes.Add(bytes)
}

// CheckpointRejected un-accounts a previously accepted checkpoint whose
// admission ultimately failed (e.g. the synchronous-flush fallback could
// not land it anywhere).
func (r *Recorder) CheckpointRejected(bytes int64) {
	r.acceptedBytes.Add(-bytes)
}

// ConserveDurable records bytes whose flush chain reached a durable tier.
// Called exactly once per durable checkpoint version, which is what lets
// CheckInvariants demand one critical-path record per durable version.
func (r *Recorder) ConserveDurable(bytes int64) {
	r.durableBytes.Add(bytes)
	r.durableOps.Add(1)
}

// ConserveDiscarded records bytes whose flush was skipped because the
// checkpoint was consumed first (§2 cond. 5) or its cached replica was
// released before the chain ran.
func (r *Recorder) ConserveDiscarded(bytes int64) {
	r.discardedBytes.Add(bytes)
}

// ConserveLost records bytes whose flush chain was abandoned after
// exhausting every durable route.
func (r *Recorder) ConserveLost(bytes int64) {
	r.lostBytes.Add(bytes)
}

// RetryBout records the outcome of one retried I/O sequence.
func (r *Recorder) RetryBout(recovered bool) {
	if recovered {
		r.retryBoutsRecovered.Add(1)
	} else {
		r.retryBoutsExhausted.Add(1)
	}
}

// Restore records one restore operation.
func (r *Recorder) Restore(iter int, bytes int64, blocked time.Duration, prefetchDistance int) {
	r.restBytes.Add(bytes)
	r.restBlocked.Add(int64(blocked))
	r.restOps.Add(1)
	r.mu.Lock()
	r.restoreSeries = append(r.restoreSeries, SeriesPoint{
		Iteration:        iter,
		Bytes:            bytes,
		Blocked:          blocked,
		PrefetchDistance: prefetchDistance,
	})
	r.prefetchDist = append(r.prefetchDist, prefetchDistance)
	r.mu.Unlock()
	r.ObserveDuration(HistRestore, blocked)
}

// EvictionWait accumulates time spent blocked on evictions.
func (r *Recorder) EvictionWait(d time.Duration) {
	r.evictionWait.Add(int64(d))
	r.ObserveDuration(HistEvictionWait, d)
}

// Deviation records a restore that was not the next hinted checkpoint.
func (r *Recorder) Deviation() {
	r.deviationReads.Add(1)
}

// Retry records one retried I/O attempt against the named tier.
func (r *Recorder) Retry(tier string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.retries == nil {
		r.retries = map[string]int64{}
	}
	r.retries[tier]++
}

// Degradation records the named tier being marked degraded.
func (r *Recorder) Degradation(tier string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.degradations == nil {
		r.degradations = map[string]int64{}
	}
	r.degradations[tier]++
}

// TierRecovery records the named tier healing: a recovery probe
// succeeded after the tier had been marked degraded.
func (r *Recorder) TierRecovery(tier string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tierRecoveries == nil {
		r.tierRecoveries = map[string]int64{}
	}
	r.tierRecoveries[tier]++
}

// TierRecoveryCount returns the total healed degradations across tiers —
// a cheap accessor for sampler probes (Snapshot copies every series).
func (r *Recorder) TierRecoveryCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t int64
	for _, n := range r.tierRecoveries {
		t += n
	}
	return t
}

// PartnerCopy records one replica staged on the partner node's SSD.
func (r *Recorder) PartnerCopy(bytes int64) {
	r.partnerCopies.Add(1)
	r.partnerCopyBytes.Add(bytes)
}

// PartnerCopyFailure records a partner replication attempt that failed.
func (r *Recorder) PartnerCopyFailure() {
	r.partnerCopyFailures.Add(1)
}

// RankDeath records this rank being killed by fault injection.
func (r *Recorder) RankDeath() {
	r.rankDeaths.Add(1)
}

// DrainStart records a preemption notice initiating a deadline-bounded
// drain.
func (r *Recorder) DrainStart() {
	r.drains.Add(1)
}

// DrainDeadline records whether the drain's triage finished inside its
// grace window. Called exactly once per drain.
func (r *Recorder) DrainDeadline(met bool) {
	if met {
		r.drainDeadlineHits.Add(1)
	}
}

// DrainFlushed records one version the drain triage made durable.
func (r *Recorder) DrainFlushed(bytes int64) {
	r.drainedVersions.Add(1)
	r.drainedBytes.Add(bytes)
}

// DrainAbandoned records one version the drain failed open to ErrLost
// because it could not land inside the deadline budget.
func (r *Recorder) DrainAbandoned(bytes int64) {
	r.drainAbandonedVersions.Add(1)
	r.drainAbandonedBytes.Add(bytes)
}

// MigrationStart records a live migration attempt to a successor node.
func (r *Recorder) MigrationStart() {
	r.migrations.Add(1)
}

// MigrationCopy records one store version copied to the successor.
func (r *Recorder) MigrationCopy(bytes int64) {
	r.migratedVersions.Add(1)
	r.migratedBytes.Add(bytes)
}

// MigrationFailure records a per-version migration copy that failed.
func (r *Recorder) MigrationFailure() {
	r.migrationFailures.Add(1)
}

// HedgeLaunched records a hedge leg launched because the preferred
// tier's read exceeded its adaptive deadline.
func (r *Recorder) HedgeLaunched() {
	r.hedgesLaunched.Add(1)
}

// HedgeWin records a read won by a hedge leg: the data was served from
// the hedged (deeper) replica while the preferred tier was still busy.
func (r *Recorder) HedgeWin() {
	r.hedgeWins.Add(1)
}

// HedgeWasted records bytes moved by a race leg that lost: the transfer
// completed but its result was discarded.
func (r *Recorder) HedgeWasted(bytes int64) {
	r.hedgeWastedBytes.Add(bytes)
}

// SLOAlertFired records one SLO objective window pair crossing its
// burn-rate threshold.
func (r *Recorder) SLOAlertFired() {
	r.sloAlertsFired.Add(1)
}

// SLOAlertResolved records one firing SLO window pair dropping back
// below its burn-rate threshold.
func (r *Recorder) SLOAlertResolved() {
	r.sloAlertsResolved.Add(1)
}

// TelemetryDrops mirrors the bounded telemetry rings' drop counts
// (Tracer.Dropped and FlightRecorder.TotalDropped) into the metrics
// books. The values are totals, not deltas — the latest call wins.
func (r *Recorder) TelemetryDrops(traceEvents, traceCounters, ledgerEvents int64) {
	r.traceEventsDropped.Store(traceEvents)
	r.traceCountersDropped.Store(traceCounters)
	r.ledgerEventsDropped.Store(ledgerEvents)
}

// StallDetected records a background flush leg exceeding its adaptive
// deadline without failing — the gray-stall signal.
func (r *Recorder) StallDetected() {
	r.stallsDetected.Add(1)
}

// StallRerouted records a stalled flush successfully re-routed to an
// alternate durable tier.
func (r *Recorder) StallRerouted() {
	r.stallsRerouted.Add(1)
}

// HealthQuarantine records a tier quarantined because its EWMA latency
// health score breached the gray-failure threshold.
func (r *Recorder) HealthQuarantine() {
	r.healthQuarantines.Add(1)
}

// FallbackRead records a read served from a deeper tier after a faster
// tier's replica failed or was missing.
func (r *Recorder) FallbackRead() {
	r.fallbackReads.Add(1)
}

// Repopulation records a replica re-staged into a faster tier after a
// fallback read recovered the bytes.
func (r *Recorder) Repopulation() {
	r.repopulations.Add(1)
}

// FlushAbort records a flush chain abandoned after exhausting every
// durable route.
func (r *Recorder) FlushAbort() {
	r.flushAborts.Add(1)
}

// SyncFlush records a checkpoint that bypassed the GPU cache via the
// synchronous-flush fallback.
func (r *Recorder) SyncFlush() {
	r.syncFlushes.Add(1)
}

// Pipelined records one chunked multi-hop transfer stream: the bytes it
// moved, its end-to-end elapsed time, and the summed busy time of its
// hops (hopBusy > elapsed measures the overlap the pipelining won).
// hopBytes carries the payload observed per hop; for complete (error-free)
// streams every hop must have moved exactly bytes, which CheckInvariants
// verifies against the accumulated totals.
func (r *Recorder) Pipelined(bytes int64, elapsed, hopBusy time.Duration, hopBytes []int64, complete bool) {
	r.pipelinedStreams.Add(1)
	r.pipelinedBytes.Add(bytes)
	r.pipelinedElapsed.Add(int64(elapsed))
	r.pipelinedHopBusy.Add(int64(hopBusy))
	if complete {
		var sum int64
		for _, hb := range hopBytes {
			sum += hb
		}
		r.pipelinedHopBytes.Add(sum)
		r.pipelinedHopBytesWant.Add(bytes * int64(len(hopBytes)))
	}
}

// Summary is an immutable snapshot of a Recorder.
type Summary struct {
	CheckpointBytes   int64
	CheckpointBlocked time.Duration
	CheckpointOps     int64
	RestoreBytes      int64
	RestoreBlocked    time.Duration
	RestoreOps        int64
	RestoreSeries     []SeriesPoint
	EvictionWait      time.Duration
	DeviationReads    int64

	// Robustness counters.
	Retries        map[string]int64
	Degradations   map[string]int64
	TierRecoveries map[string]int64
	FallbackReads  int64
	Repopulations  int64
	FlushAborts    int64
	SyncFlushes    int64

	// Cluster failure model.
	PartnerCopies       int64
	PartnerCopyBytes    int64
	PartnerCopyFailures int64
	RankDeaths          int64

	// Scheduling events: deadline-bounded drain and live migration.
	Drains                 int64
	DrainDeadlineHits      int64
	DrainedVersions        int64
	DrainedBytes           int64
	DrainAbandonedVersions int64
	DrainAbandonedBytes    int64
	Migrations             int64
	MigratedVersions       int64
	MigratedBytes          int64
	MigrationFailures      int64

	// Chunked transfer pipelining (§4.3).
	PipelinedStreams int64
	PipelinedBytes   int64
	PipelinedElapsed time.Duration
	PipelinedHopBusy time.Duration

	// Per-hop byte conservation for complete pipelined streams.
	PipelinedHopBytes     int64
	PipelinedHopBytesWant int64

	// Conservation (fate) accounting; see CheckInvariants.
	AcceptedBytes  int64
	DurableBytes   int64
	DiscardedBytes int64
	LostBytes      int64

	// Retry bout outcomes.
	RetryBoutsRecovered int64
	RetryBoutsExhausted int64

	// Gray-failure tolerance (DESIGN.md §16).
	HedgesLaunched    int64
	HedgeWins         int64
	HedgeWastedBytes  int64
	StallsDetected    int64
	StallsRerouted    int64
	HealthQuarantines int64

	// SLO alert transitions and telemetry-drop gauges (DESIGN.md §17).
	SLOAlertsFired       int64
	SLOAlertsResolved    int64
	TraceEventsDropped   int64
	TraceCountersDropped int64
	LedgerEventsDropped  int64

	// Critical-path attribution records and the durable-fate op count
	// they are balanced against (see critpath.go, CheckInvariants).
	CritPaths  []CritPathRecord `json:",omitempty"`
	DurableOps int64

	// Fixed-boundary latency histograms keyed by the Hist* constants.
	Histograms map[string]HistogramSnapshot `json:",omitempty"`
}

// PendingFlushBytes returns accepted bytes whose fate has not been decided
// yet. It is zero at quiescence (after WaitFlush / Close).
func (s Summary) PendingFlushBytes() int64 {
	return s.AcceptedBytes - s.DurableBytes - s.DiscardedBytes - s.LostBytes
}

// ConservationTracked reports whether this summary came from a runtime
// that performs fate accounting (the Score runtime does; the baseline
// runtimes only keep throughput counters).
func (s Summary) ConservationTracked() bool {
	return s.AcceptedBytes != 0 || s.DurableBytes != 0 || s.DiscardedBytes != 0 || s.LostBytes != 0
}

// PipelineOverlap returns the total simulated transfer time hidden by
// chunked multi-hop streaming: summed per-hop busy time minus summed
// end-to-end elapsed time, clamped at zero.
func (s Summary) PipelineOverlap() time.Duration {
	if s.PipelinedHopBusy > s.PipelinedElapsed {
		return s.PipelinedHopBusy - s.PipelinedElapsed
	}
	return 0
}

// TotalRetries sums retried I/O attempts across tiers.
func (s Summary) TotalRetries() int64 {
	var t int64
	for _, n := range s.Retries {
		t += n
	}
	return t
}

// TotalDegradations sums degradation events across tiers.
func (s Summary) TotalDegradations() int64 {
	var t int64
	for _, n := range s.Degradations {
		t += n
	}
	return t
}

// TotalTierRecoveries sums healed degradations across tiers.
func (s Summary) TotalTierRecoveries() int64 {
	var t int64
	for _, n := range s.TierRecoveries {
		t += n
	}
	return t
}

// Snapshot returns the current totals. Atomic counters are read
// individually (merge-on-read); at quiescence the result is exact, and
// mid-run it is the same per-field-consistent view concurrent updates
// always produced.
func (r *Recorder) Snapshot() Summary {
	r.mu.Lock()
	series := make([]SeriesPoint, len(r.restoreSeries))
	copy(series, r.restoreSeries)
	retries := copyCounts(r.retries)
	degradations := copyCounts(r.degradations)
	tierRecoveries := copyCounts(r.tierRecoveries)
	critPaths := copyCritPaths(r.critPaths)
	r.mu.Unlock()
	return Summary{
		CheckpointBytes:   r.ckptBytes.Load(),
		CheckpointBlocked: time.Duration(r.ckptBlocked.Load()),
		CheckpointOps:     r.ckptOps.Load(),
		RestoreBytes:      r.restBytes.Load(),
		RestoreBlocked:    time.Duration(r.restBlocked.Load()),
		RestoreOps:        r.restOps.Load(),
		RestoreSeries:     series,
		EvictionWait:      time.Duration(r.evictionWait.Load()),
		DeviationReads:    r.deviationReads.Load(),
		Retries:           retries,
		Degradations:      degradations,
		TierRecoveries:    tierRecoveries,
		FallbackReads:     r.fallbackReads.Load(),
		Repopulations:     r.repopulations.Load(),
		FlushAborts:       r.flushAborts.Load(),
		SyncFlushes:       r.syncFlushes.Load(),

		PartnerCopies:       r.partnerCopies.Load(),
		PartnerCopyBytes:    r.partnerCopyBytes.Load(),
		PartnerCopyFailures: r.partnerCopyFailures.Load(),
		RankDeaths:          r.rankDeaths.Load(),

		Drains:                 r.drains.Load(),
		DrainDeadlineHits:      r.drainDeadlineHits.Load(),
		DrainedVersions:        r.drainedVersions.Load(),
		DrainedBytes:           r.drainedBytes.Load(),
		DrainAbandonedVersions: r.drainAbandonedVersions.Load(),
		DrainAbandonedBytes:    r.drainAbandonedBytes.Load(),
		Migrations:             r.migrations.Load(),
		MigratedVersions:       r.migratedVersions.Load(),
		MigratedBytes:          r.migratedBytes.Load(),
		MigrationFailures:      r.migrationFailures.Load(),

		PipelinedStreams: r.pipelinedStreams.Load(),
		PipelinedBytes:   r.pipelinedBytes.Load(),
		PipelinedElapsed: time.Duration(r.pipelinedElapsed.Load()),
		PipelinedHopBusy: time.Duration(r.pipelinedHopBusy.Load()),

		PipelinedHopBytes:     r.pipelinedHopBytes.Load(),
		PipelinedHopBytesWant: r.pipelinedHopBytesWant.Load(),

		AcceptedBytes:  r.acceptedBytes.Load(),
		DurableBytes:   r.durableBytes.Load(),
		DiscardedBytes: r.discardedBytes.Load(),
		LostBytes:      r.lostBytes.Load(),

		RetryBoutsRecovered: r.retryBoutsRecovered.Load(),
		RetryBoutsExhausted: r.retryBoutsExhausted.Load(),

		HedgesLaunched:    r.hedgesLaunched.Load(),
		HedgeWins:         r.hedgeWins.Load(),
		HedgeWastedBytes:  r.hedgeWastedBytes.Load(),
		StallsDetected:    r.stallsDetected.Load(),
		StallsRerouted:    r.stallsRerouted.Load(),
		HealthQuarantines: r.healthQuarantines.Load(),

		SLOAlertsFired:       r.sloAlertsFired.Load(),
		SLOAlertsResolved:    r.sloAlertsResolved.Load(),
		TraceEventsDropped:   r.traceEventsDropped.Load(),
		TraceCountersDropped: r.traceCountersDropped.Load(),
		LedgerEventsDropped:  r.ledgerEventsDropped.Load(),

		CritPaths:  critPaths,
		DurableOps: r.durableOps.Load(),

		Histograms: r.hists.snapshot(),
	}
}

func copyCounts(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// CheckpointThroughput returns application-observed write throughput in
// bytes/second (total size over blocking time, §5.4.1).
func (s Summary) CheckpointThroughput() float64 {
	return throughput(s.CheckpointBytes, s.CheckpointBlocked)
}

// RestoreThroughput returns application-observed read throughput.
func (s Summary) RestoreThroughput() float64 {
	return throughput(s.RestoreBytes, s.RestoreBlocked)
}

// MeanPrefetchDistance averages the prefetch distance over all restores.
func (s Summary) MeanPrefetchDistance() float64 {
	if len(s.RestoreSeries) == 0 {
		return 0
	}
	var sum int
	for _, p := range s.RestoreSeries {
		sum += p.PrefetchDistance
	}
	return float64(sum) / float64(len(s.RestoreSeries))
}

func throughput(bytes int64, blocked time.Duration) float64 {
	if blocked <= 0 {
		if bytes > 0 {
			return float64(bytes) * 1e9 // effectively instant
		}
		return 0
	}
	return float64(bytes) / blocked.Seconds()
}

// Merge combines summaries from multiple processes: byte and time totals
// add; series concatenate sorted by iteration.
func Merge(parts ...Summary) Summary {
	var out Summary
	for _, p := range parts {
		out.CheckpointBytes += p.CheckpointBytes
		out.CheckpointBlocked += p.CheckpointBlocked
		out.CheckpointOps += p.CheckpointOps
		out.RestoreBytes += p.RestoreBytes
		out.RestoreBlocked += p.RestoreBlocked
		out.RestoreOps += p.RestoreOps
		out.EvictionWait += p.EvictionWait
		out.DeviationReads += p.DeviationReads
		out.RestoreSeries = append(out.RestoreSeries, p.RestoreSeries...)
		out.FallbackReads += p.FallbackReads
		out.Repopulations += p.Repopulations
		out.FlushAborts += p.FlushAborts
		out.SyncFlushes += p.SyncFlushes
		out.PartnerCopies += p.PartnerCopies
		out.PartnerCopyBytes += p.PartnerCopyBytes
		out.PartnerCopyFailures += p.PartnerCopyFailures
		out.RankDeaths += p.RankDeaths
		out.Drains += p.Drains
		out.DrainDeadlineHits += p.DrainDeadlineHits
		out.DrainedVersions += p.DrainedVersions
		out.DrainedBytes += p.DrainedBytes
		out.DrainAbandonedVersions += p.DrainAbandonedVersions
		out.DrainAbandonedBytes += p.DrainAbandonedBytes
		out.Migrations += p.Migrations
		out.MigratedVersions += p.MigratedVersions
		out.MigratedBytes += p.MigratedBytes
		out.MigrationFailures += p.MigrationFailures
		out.PipelinedStreams += p.PipelinedStreams
		out.PipelinedBytes += p.PipelinedBytes
		out.PipelinedElapsed += p.PipelinedElapsed
		out.PipelinedHopBusy += p.PipelinedHopBusy
		out.PipelinedHopBytes += p.PipelinedHopBytes
		out.PipelinedHopBytesWant += p.PipelinedHopBytesWant
		out.AcceptedBytes += p.AcceptedBytes
		out.DurableBytes += p.DurableBytes
		out.DiscardedBytes += p.DiscardedBytes
		out.LostBytes += p.LostBytes
		out.RetryBoutsRecovered += p.RetryBoutsRecovered
		out.RetryBoutsExhausted += p.RetryBoutsExhausted
		out.HedgesLaunched += p.HedgesLaunched
		out.HedgeWins += p.HedgeWins
		out.HedgeWastedBytes += p.HedgeWastedBytes
		out.StallsDetected += p.StallsDetected
		out.StallsRerouted += p.StallsRerouted
		out.HealthQuarantines += p.HealthQuarantines
		out.SLOAlertsFired += p.SLOAlertsFired
		out.SLOAlertsResolved += p.SLOAlertsResolved
		out.TraceEventsDropped += p.TraceEventsDropped
		out.TraceCountersDropped += p.TraceCountersDropped
		out.LedgerEventsDropped += p.LedgerEventsDropped
		out.CritPaths = append(out.CritPaths, p.CritPaths...)
		out.DurableOps += p.DurableOps
		for name, h := range p.Histograms {
			if out.Histograms == nil {
				out.Histograms = map[string]HistogramSnapshot{}
			}
			merged, err := out.Histograms[name].merge(h)
			if err == nil {
				out.Histograms[name] = merged
			}
		}
		for k, v := range p.Retries {
			if out.Retries == nil {
				out.Retries = map[string]int64{}
			}
			out.Retries[k] += v
		}
		for k, v := range p.Degradations {
			if out.Degradations == nil {
				out.Degradations = map[string]int64{}
			}
			out.Degradations[k] += v
		}
		for k, v := range p.TierRecoveries {
			if out.TierRecoveries == nil {
				out.TierRecoveries = map[string]int64{}
			}
			out.TierRecoveries[k] += v
		}
	}
	sort.SliceStable(out.RestoreSeries, func(i, j int) bool {
		return out.RestoreSeries[i].Iteration < out.RestoreSeries[j].Iteration
	})
	sortCritPaths(out.CritPaths)
	return out
}

// FormatBytesPerSec renders a throughput human-readably (e.g. "25.0 GB/s").
func FormatBytesPerSec(bps float64) string {
	const (
		kb = 1 << 10
		mb = 1 << 20
		gb = 1 << 30
		tb = 1 << 40
	)
	switch {
	case bps >= tb:
		return fmt.Sprintf("%.2f TB/s", bps/tb)
	case bps >= gb:
		return fmt.Sprintf("%.2f GB/s", bps/gb)
	case bps >= mb:
		return fmt.Sprintf("%.2f MB/s", bps/mb)
	case bps >= kb:
		return fmt.Sprintf("%.2f KB/s", bps/kb)
	default:
		return fmt.Sprintf("%.0f B/s", bps)
	}
}
