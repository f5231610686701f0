package score_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"score"
	"score/internal/device"
)

// TestSharedHostCachePublicRoundTrip drives the public shared-pool path:
// two clients on one 2-GPU node share a host cache pool, checkpoint real
// payloads under the same version numbers, and restore them bit-exact
// after their GPU caches have evicted everything to the pool. The pool's
// pinned registration is split across the node's 2 processes, so no
// flush can reach the host tier before half the pool is pinned at the
// device's registration rate.
func TestSharedHostCachePublicRoundTrip(t *testing.T) {
	const (
		gpus     = 2
		pool     = 8 << 30
		versions = 8
		size     = 256 << 10
	)
	sim, err := score.NewSim(score.WithGPUsPerNode(gpus), score.WithSharedHostCache(pool))
	if err != nil {
		t.Fatal(err)
	}
	rate := device.DefaultAllocCosts().PinnedHostBytesPerSec
	registered := time.Duration(float64(pool/gpus) / rate * 1e9)

	sim.Run(func() {
		clients := make([]*score.Client, gpus)
		for g := range clients {
			// A GPU cache of 2 versions forces the rest out to the pool.
			c, err := sim.NewClient(0, g, score.WithGPUCache(2*size))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			clients[g] = c
		}
		data := make([][][]byte, gpus)
		flushedAt := make([]time.Duration, gpus)
		wg := sim.NewWaitGroup()
		for g, c := range clients {
			rng := rand.New(rand.NewSource(int64(g + 1)))
			data[g] = make([][]byte, versions)
			wg.Add(1)
			sim.Clock().Go(func() {
				defer wg.Done()
				for v := range data[g] {
					data[g][v] = make([]byte, size)
					rng.Read(data[g][v])
					if err := c.Checkpoint(int64(v), data[g][v]); err != nil {
						t.Error(err)
						return
					}
					c.Compute(time.Millisecond)
				}
				if err := c.WaitFlush(); err != nil {
					t.Errorf("client %d: WaitFlush: %v", g, err)
					return
				}
				flushedAt[g] = sim.Clock().Now()
				if err := c.CheckMetricsInvariants(true); err != nil {
					t.Errorf("client %d: %v", g, err)
				}
			})
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for g, at := range flushedAt {
			if at < registered || at > registered+100*time.Millisecond {
				t.Errorf("client %d flushed at %v, want just after the %v registration of a %d-way pinned pool",
					g, at, registered, gpus)
			}
		}
		for g, c := range clients {
			for v := versions - 1; v >= 0; v-- {
				got, err := c.Restart(int64(v))
				if err != nil {
					t.Fatalf("client %d version %d: %v", g, v, err)
				}
				if !bytes.Equal(got, data[g][v]) {
					t.Fatalf("client %d version %d: restored bytes differ", g, v)
				}
			}
			if err := c.Err(); err != nil {
				t.Errorf("client %d: %v", g, err)
			}
			if err := c.CheckMetricsInvariants(false); err != nil {
				t.Errorf("client %d: %v", g, err)
			}
		}
	})
}
