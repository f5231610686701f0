package cachebuf

import (
	"testing"
	"time"

	"score/internal/simclock"
)

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		PolicyScore: "score", PolicyLRU: "lru", PolicyFIFO: "fifo",
		PolicyLRUK: "lru-k", Policy2Q: "2q", PolicyARC: "arc",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), name)
		}
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("out-of-range policy should format numerically")
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
		ep, err := p.NewPolicy()
		if err != nil {
			t.Fatalf("NewPolicy(%v): %v", p, err)
		}
		if ep.Name() != p.String() {
			t.Errorf("policy %v names itself %q", p, ep.Name())
		}
	}
	for _, name := range []string{"mru", "clock-pro"} {
		if _, err := ParsePolicy(name); err == nil {
			t.Errorf("ParsePolicy(%q) of unregistered name should fail", name)
		}
	}
}

// Regression: unknown Policy values used to fall through silently to the
// score policy; they must now be a constructor error everywhere.
func TestUnknownPolicyIsError(t *testing.T) {
	bogus := Policy(99)
	if bogus.Known() {
		t.Fatal("Policy(99) should not be known")
	}
	if _, err := bogus.NewPolicy(); err == nil {
		t.Error("NewPolicy on unknown policy should fail")
	}
	runSim(t, func(clk *simclock.Virtual) {
		b := New(clk, "gpu", 100, newFakeOracle())
		if err := b.SetPolicy(bogus); err == nil {
			t.Error("SetPolicy(Policy(99)) should fail")
		}
		if b.PolicyName() != "score" {
			t.Errorf("failed SetPolicy changed the active policy to %q", b.PolicyName())
		}
	})
}

func TestLRUPolicyEvictsLeastRecentlyTouched(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 300, o)
		b.SetPolicy(PolicyLRU)
		for i := ID(0); i < 3; i++ {
			o.mark(i)
			if _, err := b.Reserve(i, 100); err != nil {
				t.Fatal(err)
			}
		}
		// Touch 0 and 1: checkpoint 2 becomes the coldest despite being
		// the most recently inserted.
		b.Touch(0)
		b.Touch(1)
		if _, err := b.Reserve(10, 100); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := b.Contains(2); ok {
			t.Error("LRU should have evicted untouched checkpoint 2")
		}
		for _, id := range []ID{0, 1} {
			if _, _, ok := b.Contains(id); !ok {
				t.Errorf("touched checkpoint %d evicted", id)
			}
		}
	})
}

func TestFIFOPolicyEvictsOldestInsertion(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 300, o)
		b.SetPolicy(PolicyFIFO)
		for i := ID(0); i < 3; i++ {
			o.mark(i)
			if _, err := b.Reserve(i, 100); err != nil {
				t.Fatal(err)
			}
		}
		// Touching must NOT matter for FIFO.
		b.Touch(0)
		b.Touch(0)
		if _, err := b.Reserve(10, 100); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := b.Contains(0); ok {
			t.Error("FIFO should have evicted the first-inserted checkpoint 0")
		}
	})
}

func TestRecencyPoliciesHonorPinning(t *testing.T) {
	for _, pol := range []Policy{PolicyLRU, PolicyFIFO} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			runSim(t, func(clk *simclock.Virtual) {
				o := newFakeOracle()
				b := New(clk, "gpu", 200, o)
				b.SetPolicy(pol)
				o.mark(0, 1)
				if _, err := b.Reserve(0, 100); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Reserve(1, 100); err != nil {
					t.Fatal(err)
				}
				// Pin the would-be victim (oldest/coldest = 0).
				o.pinned[0] = true
				if _, err := b.Reserve(10, 100); err != nil {
					t.Fatal(err)
				}
				if _, _, ok := b.Contains(0); !ok {
					t.Error("pinned checkpoint evicted by recency policy")
				}
				if _, _, ok := b.Contains(1); ok {
					t.Error("unpinned checkpoint survived instead")
				}
			})
		})
	}
}

func TestRecencyPolicyWaitsForEvictability(t *testing.T) {
	// Recency policies pick windows by recency but still wait for the
	// life cycle to allow the eviction.
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 100, o)
		b.SetPolicy(PolicyLRU)
		if _, err := b.Reserve(0, 100); err != nil {
			t.Fatal(err)
		}
		o.evictable[0], o.timeTo[0] = false, time.Second
		clk.Go(func() {
			clk.Sleep(time.Second)
			o.mark(0)
			b.Notify()
		})
		start := clk.Now()
		if _, err := b.Reserve(1, 100); err != nil {
			t.Fatal(err)
		}
		if waited := clk.Now() - start; waited != time.Second {
			t.Errorf("waited %v, want 1s", waited)
		}
	})
}
