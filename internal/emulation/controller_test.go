package emulation

import (
	"math/rand"
	"testing"

	"tolerance/internal/baselines"
	"tolerance/internal/cmdp"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

// newTestController returns a controller over a small fit for the scenario
// s with n nodes on catalog container 0, each at BTR offset 0.
func newTestController(t *testing.T, s Scenario, n int) *Controller {
	t.Helper()
	s.FitSamples = 300
	if err := s.ApplyDefaults(); err != nil {
		t.Fatal(err)
	}
	fits, err := s.FitSet()
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(s, fits)
	for i := 0; i < n; i++ {
		c.AddNode(0, 0, 0)
	}
	return c
}

// stepNode runs one node's observation through the controller at step t
// and applies a selected recovery; it reports whether the node recovered.
func stepNode(c *Controller, t, obs int) bool {
	c.Observe(0, obs)
	c.UpdateBeliefs()
	rec := c.SelectRecoveries(t)
	for _, i := range rec {
		c.Recover(int(i), t, 0)
	}
	return len(rec) > 0
}

// TestControllerDetectsIntrusion: on healthy alerts the node controller
// keeps waiting; on a sustained intrusion it recovers within a few steps,
// and recovery resets the belief to the prior pA.
func TestControllerDetectsIntrusion(t *testing.T) {
	policy, err := baselines.NewTolerance(
		&recovery.ThresholdStrategy{Thresholds: []float64{0.3}, DeltaR: recovery.InfiniteDeltaR}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newTestController(t, Scenario{N1: 1, Policy: policy}, 1)
	profile := c.fits.Container(0).Profile
	rng := rand.New(rand.NewSource(1))
	step, recoveries := 0, 0
	for ; step < 30; step++ {
		if stepNode(c, step+1, profile.Sample(rng, false)) {
			recoveries++
		}
	}
	if recoveries > 3 {
		t.Errorf("%d spurious recoveries on healthy traffic", recoveries)
	}
	detected := -1
	for i := 0; i < 20; i++ {
		step++
		if stepNode(c, step, profile.Sample(rng, true)) {
			detected = i
			break
		}
	}
	if detected < 0 {
		t.Fatal("intrusion never detected")
	}
	if detected > 15 {
		t.Errorf("detection took %d steps", detected)
	}
	if got, want := c.ln.belief[0], c.s.Params.PA; got != want {
		t.Errorf("post-recovery belief = %v, want pA = %v", got, want)
	}
}

// TestControllerForcedCalendarRecovery: a BTR policy recovers each node
// once per DeltaR window, and at most K nodes per step.
func TestControllerForcedCalendarRecovery(t *testing.T) {
	c := newTestController(t, Scenario{N1: 3, K: 1, DeltaR: 5, Policy: baselines.Periodic{}}, 3)
	perStep := map[int]int{}
	for step := 1; step <= 25; step++ {
		for i := range c.ln.belief {
			c.Observe(i, 0)
		}
		c.UpdateBeliefs()
		rec := c.SelectRecoveries(step)
		perStep[len(rec)]++
		for _, i := range rec {
			if i != 0 {
				t.Fatalf("step %d: forced node %d, want node 0 (K = 1 caps ties in node order)", step, i)
			}
			c.Recover(int(i), step, 0)
		}
	}
	if perStep[1] != 5 || perStep[0] != 20 {
		t.Errorf("steps by recovery count = %v, want 5 with one and 20 with none", perStep)
	}
	if c.m.Recoveries != 5 {
		t.Errorf("Recoveries = %d, want 5", c.m.Recoveries)
	}
}

// addProbe records the system context of every add decision.
type addProbe struct {
	baselines.Tolerance
	ctx baselines.SystemContext
}

func (p *addProbe) AddNode(ctx baselines.SystemContext) bool {
	p.ctx = ctx
	return p.Tolerance.AddNode(ctx)
}

// TestControllerEvictAndGrow: evicting a crashed node drops its state and
// counts an eviction; the add decision sees floor(sum(1-b)) over the
// remaining nodes, and the Problem 2 strategy grows the system at s <= f.
func TestControllerEvictAndGrow(t *testing.T) {
	model, err := cmdp.NewBinomialModel(13, 1, 0.95, 0.95, 0)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := cmdp.Solve(model)
	if err != nil {
		t.Fatal(err)
	}
	probe := &addProbe{Tolerance: baselines.Tolerance{
		Recovery:    &recovery.ThresholdStrategy{Thresholds: []float64{1}, DeltaR: recovery.InfiniteDeltaR},
		Replication: sol,
	}}
	c := newTestController(t, Scenario{N1: 3, F: 1, Policy: probe}, 3)
	for i := range c.ln.belief {
		c.Observe(i, 0)
	}
	c.UpdateBeliefs()
	c.SelectRecoveries(1)
	// Node 1 crashed: node 2 moves down, and the lanes end after two nodes.
	c.ln.belief[0], c.ln.belief[2] = 0.05, 0.9
	c.MoveNode(1, 2)
	c.Evict(2)
	if c.m.Evictions != 1 || len(c.ln.belief) != 2 || c.ln.belief[1] != 0.9 {
		t.Fatalf("after evicting node 1: evictions %d, beliefs %v", c.m.Evictions, c.ln.belief)
	}
	_, add := c.Grow(rand.New(rand.NewSource(1)))
	// floor((1-0.05) + (1-0.9)) = floor(1.05) = 1.
	if probe.ctx.HealthyEstimate != 1 || probe.ctx.AliveNodes != 2 {
		t.Errorf("add context: healthy estimate %d, alive %d; want 1, 2",
			probe.ctx.HealthyEstimate, probe.ctx.AliveNodes)
	}
	if len(probe.ctx.Observations) != 3 {
		t.Errorf("add context has %d observations, want the 3 of this step", len(probe.ctx.Observations))
	}
	if !add || c.m.Additions != 1 {
		t.Errorf("add = %v, additions = %d; the strategy must grow at s = 1 <= f", add, c.m.Additions)
	}
	if c.ln.action[0] != uint8(nodemodel.Wait) {
		t.Errorf("node 0 action = %d after a step without recoveries", c.ln.action[0])
	}
}

// TestControllerTally scores a hand-built schedule: T(R) takes a recovered
// intrusion's time since compromise, and the penalty for one that ends in a
// crash or is still open at the end, but nothing for one a software update
// cleaned; eq. (5) charges eta per compromised node waiting and 1 per
// recovery; T(A) fails while more than f nodes are compromised or evicted;
// quorum availability also needs 2f+1+k nodes.
func TestControllerTally(t *testing.T) {
	c := newTestController(t, Scenario{N1: 3, K: 1, F: 1, Steps: 4, Policy: baselines.NoRecovery{}}, 3)
	observe := func(step int) {
		for i := range c.ln.belief {
			c.Observe(i, 0)
		}
		c.UpdateBeliefs()
		if rec := c.SelectRecoveries(step); len(rec) != 0 {
			t.Fatalf("step %d: NO-RECOVERY selected %v", step, rec)
		}
	}
	observe(1)
	c.Evict(3)
	c.Tally() // available: nothing compromised yet
	c.Compromised(0, 1)
	c.Compromised(1, 1)
	observe(2)
	c.Evict(3)
	c.Tally() // nodes 0 and 1 wait compromised: unavailable
	c.Crashed(1)
	c.Compromised(2, 2)
	observe(3)
	c.Recover(0, 3, 0)
	c.MoveNode(1, 2) // node 2, compromised, takes crashed node 1's place
	c.Evict(2)
	c.Tally() // one compromised plus one evicted: unavailable
	observe(4)
	c.Evict(2)
	c.Tally() // one compromised: available
	c.Compromised(0, 4)
	c.Cleaned(0)
	m := c.Finish()

	eta := c.s.Params.Eta
	want := Metrics{
		Availability:      0.5,
		TimeToRecovery:    (recovery.NoRecoveryPenalty + 2.0 + recovery.NoRecoveryPenalty) / 3,
		RecoveryFrequency: 1.0 / 10,
		AvgNodes:          10.0 / 4,
		AvgCost:           (eta + eta + 1 + eta + eta) / 10,
		Intrusions:        4,
		Recoveries:        1,
		Evictions:         1,
	}
	if m != want {
		t.Errorf("metrics = %+v\nwant      %+v", m, want)
	}
}
