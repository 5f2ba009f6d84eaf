package nodemodel

import (
	"math/rand"

	"tolerance/internal/dist"
)

// Kernel is the node model compiled for Monte-Carlo simulation: the
// per-step work of SampleTransition, SampleObservation and UpdateBelief
// with every quantity that depends only on the model's constants computed
// once. It draws and computes bit-identically to the Params methods it
// replaces on the hot path, which stay as its scalar oracle:
//
//   - 1-pC1, 1-pC2 and 1-pU are hoisted, each still computed by the single
//     subtraction PredictBelief performs;
//   - each transition row is stored as the running sums 0.0+row[H] and
//     (0.0+row[H])+row[C] that SampleTransition's accumulate-and-compare
//     loop builds, so one uniform and two compares pick the same successor;
//   - the belief update keeps PredictBelief's and UpdateBelief's expression
//     order, with the [0, 1] clamp in branch form (see UpdateBelief).
//
// A Kernel is a plain value (Params.Kernel allocates nothing) and is safe
// for concurrent use: its methods only read it.
type Kernel struct {
	pa    float64
	keepH float64 // 1 - pC1: a healthy node survives the step
	keepC float64 // 1 - pC2: a compromised node survives the step
	stayC float64 // 1 - pU: a compromised node is not cleaned by an update

	// cum[s][a] holds the cumulative sums of Transition(s, a) over
	// (Healthy, Compromised); Crashed takes the remaining mass.
	cum [3][2][2]float64

	zh, zc *dist.Categorical
}

// Kernel compiles the model for simulation. p must be valid (Validate).
func (p Params) Kernel() Kernel {
	k := Kernel{
		pa:    p.PA,
		keepH: 1 - p.PC1,
		keepC: 1 - p.PC2,
		stayC: 1 - p.PU,
		zh:    p.ZHealthy,
		zc:    p.ZCompromised,
	}
	for s := Healthy; s <= Crashed; s++ {
		for a := Wait; a <= Recover; a++ {
			row := p.Transition(s, a)
			acc := 0.0
			acc += row[Healthy]
			k.cum[s][a][0] = acc
			acc += row[Compromised]
			k.cum[s][a][1] = acc
		}
	}
	return k
}

// SampleTransition draws the successor of state s under action a with one
// rng.Float64, the same draw and decision as Params.SampleTransition. s and
// a must be valid states and actions.
func (k *Kernel) SampleTransition(rng *rand.Rand, s State, a Action) State {
	cum := &k.cum[s][a]
	u := rng.Float64()
	if u < cum[0] {
		return Healthy
	}
	if u < cum[1] {
		return Compromised
	}
	return Crashed
}

// SampleObservation draws an alert count from Z(. | s), as
// Params.SampleObservation does.
func (k *Kernel) SampleObservation(rng *rand.Rand, s State) int {
	if s == Compromised {
		return k.zc.Sample(rng)
	}
	return k.zh.Sample(rng)
}

// UpdateBelief is Params.UpdateBelief with the model constants hoisted: the
// same floating-point expressions in the same order, so the result has the
// same bits. The clamp is branch form instead of math.Min(1, math.Max(0, ·)):
// NaN fails both compares and passes through, as it does through the libm
// pair, and nb <= 0 maps -0 to +0, as math.Max(0, ·) does.
func (k *Kernel) UpdateBelief(b float64, a Action, o int) float64 {
	pred := k.pa // recovery resets the compromise prior (eq. 2f-2i)
	if a != Recover {
		wh := (1 - b) * k.keepH
		wc := b * k.keepC
		surv := wh + wc
		if surv <= 0 {
			pred = b
		} else {
			pred = (wh*k.pa + wc*k.stayC) / surv
		}
	}
	num := k.zc.Prob(o) * pred
	den := num + k.zh.Prob(o)*(1-pred)
	if den <= 0 {
		return b
	}
	nb := num / den
	if nb > 1 {
		return 1
	}
	if nb <= 0 {
		return 0
	}
	return nb
}

// Posterior applies only the observation part of the belief update, for the
// first observation of an episode where no action preceded it. It does not
// clamp.
func (k *Kernel) Posterior(prior float64, o int) float64 {
	num := k.zc.Prob(o) * prior
	den := num + k.zh.Prob(o)*(1-prior)
	if den <= 0 {
		return prior
	}
	return num / den
}
