package core

import (
	"time"

	"score/internal/cachebuf"
	"score/internal/lifecycle"
	"score/internal/trace"
)

// tierOracle adapts the client's replica state to the cachebuf eviction
// policy for one tier. It is invoked under the buffer's lock and may take
// Client.mu (never the reverse — see the lock-ordering note on Client).
type tierOracle struct {
	c    *Client
	tier Tier
}

// Evictable implements cachebuf.Oracle: a replica may be evicted when its
// life cycle allows it (FLUSHED or CONSUMED, Fig. 1) and no data would be
// lost — a readable copy exists on a slower tier, or the checkpoint was
// consumed and is discardable (§2 condition 5).
func (o *tierOracle) Evictable(id cachebuf.ID) bool {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	ck := o.c.ckpts[ID(id)]
	if ck == nil {
		return true // no record: stale fragment, free to reclaim
	}
	rep := ck.replicas[o.tier]
	if rep == nil {
		return true
	}
	st := rep.fsm.State()
	// flushAborted is the fail-open escape hatch: when every durable
	// route failed, the replica is sacrificial — evicting it loses the
	// checkpoint (Restore reports ErrLost) but keeps the cache live.
	safe := ck.durableBelow(o.tier) || (ck.consumed && o.c.p.DiscardAfterRestore) ||
		ck.flushAborted
	if o.c.p.NoPinning && st == lifecycle.ReadComplete && safe {
		// §4.1.3 ablation: without the unified life cycle, a
		// prefetched-but-unconsumed replica may be thrashed out.
		return true
	}
	return st.Evictable() && safe
}

// TimeToEvictable implements the paper's state_ts estimate: 0 when already
// evictable; the predicted flush completion time when a flush is pending
// ("we prefer the checkpoint whose estimated flush completion time is the
// smallest based on its size and the bandwidth between the cache tiers");
// pinned (ok=false) when a read or prefetch holds the replica.
func (o *tierOracle) TimeToEvictable(id cachebuf.ID) (time.Duration, bool) {
	o.c.mu.Lock()
	ck := o.c.ckpts[ID(id)]
	if ck == nil {
		o.c.mu.Unlock()
		return 0, true
	}
	rep := ck.replicas[o.tier]
	if rep == nil {
		o.c.mu.Unlock()
		return 0, true
	}
	discardable := (ck.consumed && o.c.p.DiscardAfterRestore) || ck.flushAborted
	durable := ck.durableBelow(o.tier)
	size := ck.size
	o.c.mu.Unlock()

	switch rep.fsm.State() {
	case lifecycle.Flushed, lifecycle.Consumed:
		if durable || discardable {
			return 0, true
		}
		// Evictable by life cycle but the slower copy is not ready
		// yet: estimate the remaining flush time.
		return o.flushEstimate(size), true
	case lifecycle.WriteComplete:
		if discardable {
			return 0, true
		}
		return o.flushEstimate(size), true
	case lifecycle.ReadComplete:
		if o.c.p.NoPinning && (durable || discardable) {
			return 0, true // §4.1.3 ablation: thrashing allowed
		}
		return 0, false // pinned until consumed (§2 condition 4)
	default:
		// INIT, WRITE_IN_PROGRESS, READ_IN_PROGRESS: pinned — a
		// transfer is in flight.
		return 0, false
	}
}

// flushEstimate predicts how long moving size bytes to the next tier will
// take under current link load.
func (o *tierOracle) flushEstimate(size int64) time.Duration {
	switch o.tier {
	case TierGPU:
		return o.c.p.GPU.PCIeLink().Estimate(size)
	case TierHost:
		return o.c.p.NVMe.Estimate(size)
	default:
		return 0
	}
}

// PrefetchDistance implements the s_score input: distance of id's hint
// from the head of the restore-order queue.
func (o *tierOracle) PrefetchDistance(id cachebuf.ID) int {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	return o.c.q.distance(ID(id))
}

// Evicted removes the replica record when the buffer discards it.
func (o *tierOracle) Evicted(id cachebuf.ID) {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	if ck := o.c.ckpts[ID(id)]; ck != nil {
		ck.replicas[o.tier] = nil
		if o.tier == TierHost {
			o.c.releaseStagedLocked(ck)
		}
		o.c.lifecycle(ck.id, trace.LEvicted, o.tier.String(), "")
	}
}
