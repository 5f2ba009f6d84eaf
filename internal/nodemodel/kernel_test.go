package nodemodel

import (
	"math"
	"math/rand"
	"testing"

	"tolerance/internal/dist"
)

// scriptedSource is a rand.Source that first replays queued Int63 values,
// then continues with a seeded legacy source, and counts every Int63 call.
// Two sources built alike are twin streams: they are in step exactly when
// their counts agree.
type scriptedSource struct {
	queue []int64
	tail  rand.Source
	calls int
}

func newScriptedSource(seed int64, queue []int64) *scriptedSource {
	return &scriptedSource{queue: append([]int64(nil), queue...), tail: rand.NewSource(seed)}
}

func (s *scriptedSource) Int63() int64 {
	s.calls++
	if len(s.queue) > 0 {
		v := s.queue[0]
		s.queue = s.queue[1:]
		return v
	}
	return s.tail.Int63()
}

func (s *scriptedSource) Seed(int64) { panic("scriptedSource: Seed") }

// int63For returns the Int63 output for which rand.Rand.Float64 yields u
// exactly, when u in [0, 1) is a multiple of 2^-63 (every float64 in
// [2^-11, 1) is); for other u it yields the multiple just below.
func int63For(u float64) int64 { return int64(u * (1 << 63)) }

// randKernelParams draws valid node models: probabilities uniform on
// [0, 1] with a quarter of them exactly 0 or 1, and observation rows with
// zero-mass cells, including cells where both rows are zero.
func randKernelParams(rng *rand.Rand) Params {
	prob := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return 1
		}
		return rng.Float64()
	}
	n := 1 + rng.Intn(12)
	zh := make([]float64, n)
	zc := make([]float64, n)
	for o := range zh {
		zh[o], zc[o] = rng.Float64(), rng.Float64()
		switch rng.Intn(6) {
		case 0:
			zh[o] = 0
		case 1:
			zc[o] = 0
		case 2:
			zh[o], zc[o] = 0, 0
		}
	}
	zh[rng.Intn(n)] += 0.1 // keep positive total mass
	zc[rng.Intn(n)] += 0.1
	return Params{
		PA: prob(), PC1: prob(), PC2: prob(), PU: prob(),
		Eta:          1 + 4*rng.Float64(),
		ZHealthy:     dist.MustCategorical(zh),
		ZCompromised: dist.MustCategorical(zc),
	}
}

// kernelTestParams is the Table 8 model, a crash-heavy variant, and 200
// randomized valid models.
func kernelTestParams(t *testing.T) []Params {
	crashy := DefaultParams()
	crashy.PC1, crashy.PC2 = 0.02, 0.1
	ps := []Params{DefaultParams(), crashy}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		ps = append(ps, randKernelParams(rng))
	}
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			t.Fatalf("params %d: %v", i, err)
		}
	}
	return ps
}

var (
	allStates  = []State{Healthy, Compromised, Crashed}
	allActions = []Action{Wait, Recover}
)

// TestKernelSampleDrawIdentical checks that the kernel's samplers make the
// same draws and return the same states and alert counts as the Params
// samplers, on twin streams, for every (state, action). Each row is first
// sampled with uniforms placed exactly on each threshold the kernel
// compares against and on both float neighbours of it, so a strict compare
// turned non-strict (or the reverse) shows; random interleaved draws of
// both samplers follow.
func TestKernelSampleDrawIdentical(t *testing.T) {
	type edgeDraw struct {
		s State
		a Action
		u float64
	}
	meta := rand.New(rand.NewSource(21))
	for pi, p := range kernelTestParams(t) {
		k := p.Kernel()
		var edges []edgeDraw
		var script []int64
		for _, s := range allStates {
			for _, a := range allActions {
				row := p.Transition(s, a)
				us := []float64{0, math.Nextafter(1, 0)}
				for _, c := range []float64{0 + row[Healthy], (0 + row[Healthy]) + row[Compromised]} {
					us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
				}
				for _, u := range us {
					if u >= 0 && u < 1 {
						edges = append(edges, edgeDraw{s, a, u})
						script = append(script, int63For(u))
					}
				}
			}
		}
		seed := meta.Int63()
		src := newScriptedSource(seed, script)
		twinSrc := newScriptedSource(seed, script)
		rng, twin := rand.New(src), rand.New(twinSrc)
		inStep := func(what string) {
			t.Helper()
			if src.calls != twinSrc.calls {
				t.Fatalf("params %d %s: streams out of step (%d vs %d draws)",
					pi, what, src.calls, twinSrc.calls)
			}
		}
		for _, e := range edges {
			if got, want := k.SampleTransition(rng, e.s, e.a), p.SampleTransition(twin, e.s, e.a); got != want {
				t.Fatalf("params %d: SampleTransition(%v, %v) at u = %v: %v, Params %v (%+v)",
					pi, e.s, e.a, e.u, got, want, p)
			}
			inStep("edge draw")
		}
		for d := 0; d < 400; d++ {
			s := allStates[meta.Intn(len(allStates))]
			if meta.Intn(2) == 0 {
				a := allActions[meta.Intn(len(allActions))]
				if got, want := k.SampleTransition(rng, s, a), p.SampleTransition(twin, s, a); got != want {
					t.Fatalf("params %d draw %d: SampleTransition(%v, %v) = %v, Params %v (%+v)",
						pi, d, s, a, got, want, p)
				}
			} else if got, want := k.SampleObservation(rng, s), p.SampleObservation(twin, s); got != want {
				t.Fatalf("params %d draw %d: SampleObservation(%v) = %d, Params %d", pi, d, s, got, want)
			}
			inStep("random draw")
		}
	}
}

// posteriorOracle is the observation-only update the simulators used
// before the kernel, kept as the oracle for Kernel.Posterior.
func posteriorOracle(p Params, prior float64, obs int) float64 {
	zc := p.ZCompromised.Prob(obs)
	zh := p.ZHealthy.Prob(obs)
	num := zc * prior
	den := num + zh*(1-prior)
	if den <= 0 {
		return prior
	}
	return num / den
}

// TestKernelBeliefBitIdentical checks that Kernel.UpdateBelief returns the
// bits of Params.UpdateBelief, and Kernel.Posterior the bits of the
// observation-only update, for both actions and every observation in the
// support plus the out-of-support -1 and Len(). Beliefs cover 0, 1, pA and
// random values, and also -0, NaN and values outside [0, 1]: the kernel
// matches the scalar recursion for any input, and those are the inputs that
// reach each clamp branch.
func TestKernelBeliefBitIdentical(t *testing.T) {
	meta := rand.New(rand.NewSource(34))
	for pi, p := range kernelTestParams(t) {
		k := p.Kernel()
		beliefs := []float64{0, 1, p.PA, math.Copysign(0, -1), math.NaN(), -0.5, 1.5}
		for i := 0; i < 8; i++ {
			beliefs = append(beliefs, meta.Float64())
		}
		for _, b := range beliefs {
			for o := -1; o <= p.NumObs(); o++ {
				for _, a := range allActions {
					got, want := k.UpdateBelief(b, a, o), p.UpdateBelief(b, a, o)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("params %d: UpdateBelief(%v, %v, %d) = %v, Params %v (%+v)",
							pi, b, a, o, got, want, p)
					}
				}
				got, want := k.Posterior(b, o), posteriorOracle(p, b, o)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("params %d: Posterior(%v, %d) = %v, oracle %v (%+v)", pi, b, o, got, want, p)
				}
			}
		}
	}
}
