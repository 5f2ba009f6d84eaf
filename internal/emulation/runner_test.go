package emulation

import (
	"slices"
	"testing"

	"tolerance/internal/baselines"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

// TestRunIntoMatchesRun is the worker-residency contract: a sequence of
// scenarios executed through one reused Runner produces exactly the metrics
// a fresh Run of each scenario produces — reset leaks no state between
// runs, in either direction (node pool, rng streams, metric sums, scratch).
func TestRunIntoMatchesRun(t *testing.T) {
	fits, err := NewFitSet(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{
		{N1: 3, DeltaR: 15, Steps: 120, Seed: 1, Policy: baselines.Periodic{}, Fits: fits, FitSeed: 7},
		{N1: 6, DeltaR: 25, Steps: 150, Seed: 2, Policy: baselines.NoRecovery{}, Fits: fits, FitSeed: 7},
		{N1: 9, DeltaR: 15, Steps: 90, Seed: 3, Policy: baselines.PeriodicAdaptive{TargetN: 9}, Fits: fits, FitSeed: 7},
		{N1: 3, DeltaR: 15, Steps: 120, Seed: 1, Policy: baselines.Periodic{}, Fits: fits, FitSeed: 7},
	}
	r := NewRunner()
	for i, s := range scenarios {
		reused, err := r.RunInto(s)
		if err != nil {
			t.Fatalf("scenario %d: RunInto: %v", i, err)
		}
		fresh, err := Run(s)
		if err != nil {
			t.Fatalf("scenario %d: Run: %v", i, err)
		}
		if reused != *fresh {
			t.Errorf("scenario %d: reused runner metrics differ:\n got %+v\nwant %+v", i, reused, *fresh)
		}
	}
}

// TestRunIntoSteadyStateZeroAllocations guards the worker-resident
// contract: once a Runner is warm (its node pool and scratch sized by a
// first run), executing a whole scenario allocates nothing — including
// intrusion starts, recoveries and node churn, which all recycle pooled
// state.
func TestRunIntoSteadyStateZeroAllocations(t *testing.T) {
	params := nodemodel.DefaultParams()
	fits, err := NewFitSet(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{
		N1:      6,
		DeltaR:  15,
		Steps:   200,
		Seed:    11,
		Params:  params,
		Policy:  baselines.Periodic{},
		Fits:    fits,
		FitSeed: 5,
	}
	r := NewRunner()
	if _, err := r.RunInto(s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.RunInto(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state RunInto allocates %v times per scenario, want 0", allocs)
	}
}

// TestAccumulatorAddZeroAllocations guards the streaming-aggregation hot
// path: folding one run's metrics into the per-cell accumulators must not
// allocate (the fleet aggregator folds once per scenario).
func TestAccumulatorAddZeroAllocations(t *testing.T) {
	m := Metrics{Availability: 0.9, TimeToRecovery: 3, RecoveryFrequency: 0.05, AvgNodes: 6, AvgCost: 0.2}
	var w Welford
	x := 0.1
	allocs := testing.AllocsPerRun(1000, func() {
		w.Add(x)
		x += 0.01
	})
	if allocs != 0 {
		t.Errorf("Welford.Add allocates %v times per call, want 0", allocs)
	}
	var acc Accumulator
	allocs = testing.AllocsPerRun(1000, func() {
		acc.Add(&m)
	})
	if allocs != 0 {
		t.Errorf("Accumulator.Add allocates %v times per call, want 0", allocs)
	}
}

// windowProbe is PERIODIC-ADAPTIVE recording the WindowPos of every
// NodeAction call.
type windowProbe struct {
	baselines.PeriodicAdaptive
	got []int
}

func (p *windowProbe) NodeAction(ctx baselines.NodeContext) nodemodel.Action {
	p.got = append(p.got, ctx.WindowPos)
	return p.PeriodicAdaptive.NodeAction(ctx)
}

// TestWindowCounterMatchesModulo checks the per-node BTR window counter
// against the modulo it replaced: after every step t each node's counter
// is (t+phase) % DeltaR, and the policy sees exactly the WindowPos values
// the modulo gives, in node order, skipping the forced position 0 — or
// t+phase under recovery.InfiniteDeltaR. The crash-heavy scada-sweep
// profile makes nodes get evicted, added mid-run and recovered.
func TestWindowCounterMatchesModulo(t *testing.T) {
	params := nodemodel.DefaultParams()
	params.PA, params.PC1, params.PC2 = 0.08, 2e-2, 8e-2
	for _, deltaR := range []int{1, 15, recovery.InfiniteDeltaR} {
		finite := deltaR != recovery.InfiniteDeltaR
		probe := &windowProbe{PeriodicAdaptive: baselines.PeriodicAdaptive{TargetN: 6}}
		r, err := newRunner(Scenario{
			N1: 6, DeltaR: deltaR, Steps: 400, Seed: 9, Params: params, Policy: probe,
			FitSamples: 300, Workload: BackgroundWorkload{Lambda: 4, MeanServiceSteps: 25},
		})
		if err != nil {
			t.Fatal(err)
		}
		ln := &r.ctl.ln
		checkCounters := func(step int) {
			for i, nd := range r.nodes {
				window, phase := int(ln.window[i]), int(ln.phase[i])
				if finite && window != (step+phase)%deltaR {
					t.Fatalf("deltaR %d step %d node %d: window %d, (t+phase)%%DeltaR = %d",
						deltaR, step, nd.id, window, (step+phase)%deltaR)
				}
			}
		}
		checkCounters(0)
		var want []int
		for step := 1; step <= r.ctl.s.Steps; step++ {
			want = want[:0]
			for i := range r.nodes {
				phase := int(ln.phase[i])
				switch {
				case !finite:
					want = append(want, step+phase)
				case (step+phase)%deltaR != 0:
					want = append(want, (step+phase)%deltaR)
				}
			}
			probe.got = probe.got[:0]
			r.step(step)
			if !slices.Equal(probe.got, want) {
				t.Fatalf("deltaR %d step %d: WindowPos %v, want %v", deltaR, step, probe.got, want)
			}
			checkCounters(step)
		}
		m := r.ctl.m
		if m.Additions == 0 || m.Evictions == 0 || (finite && m.Recoveries == 0) {
			t.Errorf("deltaR %d: churn too light to exercise the counters: %+v", deltaR, m)
		}
	}
}
