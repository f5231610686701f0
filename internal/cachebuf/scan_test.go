package cachebuf

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"score/internal/simclock"
)

// countingOracle counts the score reads a window scan makes. Every
// TimeToEvictable call returns a slightly later estimate than the last,
// so a policy that re-read a fragment mid-scan would see its own score
// drift under it.
type countingOracle struct {
	*fakeOracle
	timeCalls, distCalls int
}

func (o *countingOracle) TimeToEvictable(id ID) (time.Duration, bool) {
	o.timeCalls++
	d, ok := o.fakeOracle.TimeToEvictable(id)
	return d + time.Duration(o.timeCalls)*time.Nanosecond, ok
}

func (o *countingOracle) PrefetchDistance(id ID) int {
	o.distCalls++
	return o.fakeOracle.PrefetchDistance(id)
}

// TestScanReadsOracleOncePerFragment: one TryReserve scan over N resident
// fragments consults TimeToEvictable and PrefetchDistance at most N times
// each — for the sliding-window score policy, which revisits every
// fragment as it leaves the window, and for the coldest-window scan,
// which revisits fragments O(N) times each.
func TestScanReadsOracleOncePerFragment(t *testing.T) {
	const n, size = 32, 10
	for _, pol := range []Policy{PolicyScore, PolicyLRU} {
		t.Run(pol.String(), func(t *testing.T) {
			runSim(t, func(clk *simclock.Virtual) {
				o := &countingOracle{fakeOracle: newFakeOracle()}
				b := New(clk, "gpu", n*size, o)
				if err := b.SetPolicy(pol); err != nil {
					t.Fatal(err)
				}
				for i := ID(0); i < n; i++ {
					if _, err := b.Reserve(i, size); err != nil {
						t.Fatal(err)
					}
					o.mark(i)
					o.timeTo[i] = time.Duration(n-i) * time.Millisecond
					o.distance[i] = int(i)
				}
				o.timeCalls, o.distCalls = 0, 0
				scans := b.Snapshot().WindowScans

				// Needs three neighbours: every fragment is in several
				// candidate windows.
				if _, err := b.TryReserve(n, 3*size-1); err != nil {
					t.Fatal(err)
				}
				if got := b.Snapshot().WindowScans - scans; got != 1 {
					t.Fatalf("window scans = %d, want 1", got)
				}
				if o.timeCalls > n {
					t.Errorf("TimeToEvictable called %d times for %d fragments", o.timeCalls, n)
				}
				if o.distCalls > n {
					t.Errorf("PrefetchDistance called %d times for %d fragments", o.distCalls, n)
				}
				if err := b.CheckInvariants(); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

// geometry copies the fragment list for exact comparison.
func geometry(b *Buffer) []frag {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.frags)
}

// TestSpliceGrowsWithoutSpareCapacity: a one-fragment window replaced by
// the new checkpoint plus a remainder gap must grow the fragment list
// even when its backing array has no room left.
func TestSpliceGrowsWithoutSpareCapacity(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 100, o)
		for _, id := range []ID{1, 2} {
			if _, err := b.Reserve(id, 50); err != nil {
				t.Fatal(err)
			}
		}
		o.mark(1, 2)
		o.timeTo[2] = time.Second // window [1] wins
		b.frags = slices.Clip(b.frags)

		off, err := b.TryReserve(3, 30)
		if err != nil {
			t.Fatal(err)
		}
		if off != 0 {
			t.Errorf("offset = %d, want 0", off)
		}
		want := []frag{
			{id: 3, off: 0, size: 30},
			{id: gapID, off: 30, size: 20},
			{id: 2, off: 50, size: 50},
		}
		if got := geometry(b); !reflect.DeepEqual(got, want) {
			t.Errorf("fragments = %+v, want %+v", got, want)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}

// TestSpliceShrinksInPlace: a multi-fragment window collapses into the
// new checkpoint plus a remainder gap inside the existing backing array,
// and the tail keeps its offsets.
func TestSpliceShrinksInPlace(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 100, o)
		for _, r := range []struct {
			id   ID
			size int64
		}{{1, 20}, {2, 20}, {3, 20}, {4, 40}} {
			if _, err := b.Reserve(r.id, r.size); err != nil {
				t.Fatal(err)
			}
		}
		o.mark(1, 2, 3, 4)
		o.timeTo[4] = time.Second // every window through 4 loses
		backing := &b.frags[0]

		off, err := b.TryReserve(5, 50)
		if err != nil {
			t.Fatal(err)
		}
		if off != 0 {
			t.Errorf("offset = %d, want 0", off)
		}
		want := []frag{
			{id: 5, off: 0, size: 50},
			{id: gapID, off: 50, size: 10},
			{id: 4, off: 60, size: 40},
		}
		if got := geometry(b); !reflect.DeepEqual(got, want) {
			t.Errorf("fragments = %+v, want %+v", got, want)
		}
		if &b.frags[0] != backing {
			t.Error("shrinking splice reallocated the fragment list")
		}
		if err := b.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}
