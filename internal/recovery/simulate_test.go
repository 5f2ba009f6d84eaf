package recovery

import (
	"math"
	"math/rand"
	"testing"

	"tolerance/internal/nodemodel"
)

// evaluateOracle is the Monte-Carlo evaluator written only over the scalar
// nodemodel.Params methods, with T(R) samples collected in a slice and
// summed at the end: Evaluate as it was before the compiled kernel. Evaluate
// must reproduce it bit for bit.
func evaluateOracle(rng *rand.Rand, p nodemodel.Params, s Strategy, cfg SimConfig) Metrics {
	var (
		totalCost                       float64
		aliveSteps, recoveries, crashes int
		intrusions                      int
		times                           []float64
	)
	for e := 0; e < cfg.Episodes; e++ {
		state := nodemodel.Healthy
		if rng.Float64() < p.PA {
			state = nodemodel.Compromised
			intrusions++
		}
		belief := p.PA
		obs := p.SampleObservation(rng, state)
		zc, zh := p.ZCompromised.Prob(obs), p.ZHealthy.Prob(obs)
		if num := zc * belief; num+zh*(1-belief) > 0 {
			belief = num / (num + zh*(1-belief))
		}
		compromisedAt := -1
		if state == nodemodel.Compromised {
			compromisedAt = 0
		}
		cost := 0.0
		crashed := false
		for t := 1; t <= cfg.Horizon; t++ {
			windowPos := t
			forced := false
			if cfg.DeltaR != InfiniteDeltaR {
				windowPos = t % cfg.DeltaR
				forced = windowPos == 0
			}
			action := nodemodel.Recover
			if !forced {
				action = s.Action(belief, windowPos)
			}
			cost += p.Cost(state, action)
			aliveSteps++
			if action == nodemodel.Recover {
				recoveries++
				if compromisedAt >= 0 {
					times = append(times, float64(t-compromisedAt))
					compromisedAt = -1
				}
			}
			prev := state
			state = p.SampleTransition(rng, prev, action)
			if state == nodemodel.Crashed {
				crashed = true
				break
			}
			if state == nodemodel.Compromised && (prev == nodemodel.Healthy || action == nodemodel.Recover) {
				intrusions++
				if compromisedAt < 0 {
					compromisedAt = t
				}
			}
			if state == nodemodel.Healthy && prev == nodemodel.Compromised && action == nodemodel.Wait {
				compromisedAt = -1
			}
			obs = p.SampleObservation(rng, state)
			belief = p.UpdateBelief(belief, action, obs)
		}
		if compromisedAt >= 0 {
			times = append(times, NoRecoveryPenalty)
		}
		if crashed {
			crashes++
		}
		totalCost += cost
	}
	m := Metrics{
		CrashFraction: float64(crashes) / float64(cfg.Episodes),
		Intrusions:    intrusions,
	}
	if aliveSteps > 0 {
		m.AvgCost = totalCost / float64(aliveSteps)
		m.RecoveryFrequency = float64(recoveries) / float64(aliveSteps)
		m.CompromisedFraction = totalCostToCompromised(totalCost, recoveries, p.Eta) / float64(aliveSteps)
	}
	if len(times) > 0 {
		sum := 0.0
		for _, v := range times {
			sum += v
		}
		m.TimeToRecovery = sum / float64(len(times))
	}
	return m
}

func sameMetricBits(a, b Metrics) bool {
	for _, f := range [][2]float64{
		{a.AvgCost, b.AvgCost},
		{a.TimeToRecovery, b.TimeToRecovery},
		{a.RecoveryFrequency, b.RecoveryFrequency},
		{a.CompromisedFraction, b.CompromisedFraction},
		{a.CrashFraction, b.CrashFraction},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return a.Intrusions == b.Intrusions
}

// TestEvaluateMatchesScalarOracle runs Evaluate and the scalar oracle on
// the same seeds for every strategy kind, BTR bound and model, and requires
// bit-equal metrics.
func TestEvaluateMatchesScalarOracle(t *testing.T) {
	crashy := nodemodel.DefaultParams()
	crashy.PC1, crashy.PC2 = 0.02, 0.1
	models := map[string]nodemodel.Params{"default": nodemodel.DefaultParams(), "crash-heavy": crashy}
	meta := rand.New(rand.NewSource(8))
	for name, p := range models {
		for _, deltaR := range []int{InfiniteDeltaR, 1, 15} {
			thresholds := make([]float64, ThresholdDim(deltaR))
			for i := range thresholds {
				thresholds[i] = 0.2 + 0.6*meta.Float64()
			}
			strategies := map[string]Strategy{
				"threshold": &ThresholdStrategy{Thresholds: thresholds, DeltaR: deltaR},
				"never":     NeverRecover{},
				"always":    AlwaysRecover{},
				"periodic":  PeriodicStrategy{Period: 7},
			}
			for sname, s := range strategies {
				cfg := SimConfig{Episodes: 30, Horizon: 120, DeltaR: deltaR}
				seed := meta.Int63()
				got, err := Evaluate(rand.New(rand.NewSource(seed)), p, s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := evaluateOracle(rand.New(rand.NewSource(seed)), p, s, cfg)
				if !sameMetricBits(*got, want) {
					t.Errorf("%s, deltaR %d, %s: Evaluate %+v, oracle %+v", name, deltaR, sname, *got, want)
				}
			}
		}
	}
}

// TestEvaluateAllocs pins Evaluate at one allocation per call, the
// returned *Metrics: the episode loop itself allocates nothing.
func TestEvaluateAllocs(t *testing.T) {
	p := nodemodel.DefaultParams()
	rng := rand.New(rand.NewSource(1))
	s := &ThresholdStrategy{Thresholds: []float64{0.5}, DeltaR: InfiniteDeltaR}
	cfg := SimConfig{Episodes: 20, Horizon: 150, DeltaR: InfiniteDeltaR}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := Evaluate(rng, p, s, cfg); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("Evaluate allocates %v per call, want <= 1", avg)
	}
}

// BenchmarkEvaluate times one Algorithm 1 objective evaluation's
// Monte-Carlo estimate on the Table 8 model: M = 20 episodes of 150 steps
// under a 14-threshold strategy at Delta_R = 15.
func BenchmarkEvaluate(b *testing.B) {
	p := nodemodel.DefaultParams()
	const deltaR = 15
	thresholds := make([]float64, ThresholdDim(deltaR))
	for i := range thresholds {
		thresholds[i] = 0.9 - 0.04*float64(i)
	}
	s := &ThresholdStrategy{Thresholds: thresholds, DeltaR: deltaR}
	cfg := SimConfig{Episodes: 20, Horizon: 150, DeltaR: deltaR}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(rng, p, s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
