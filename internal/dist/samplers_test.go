package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestBinomialSamplerDrawIdentical is the hoisted sampler's contract: for
// any (p, n) and any rng position, BinomialSampler.Sample must consume
// exactly the draws SampleBinomial consumes and return the identical
// value — the emulation hot path swapped one for the other under a
// byte-stability guarantee, so this is draw-for-draw equality, not
// distributional equality.
func TestBinomialSamplerDrawIdentical(t *testing.T) {
	meta := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		p := meta.Float64()
		switch trial % 10 {
		case 0:
			p = 0
		case 1:
			p = 1
		case 2:
			p = 1e-6 // deep chunking regime: n*log(q) << -700 for large n
		}
		seed := meta.Int63()
		var s BinomialSampler
		s.Reset(p)
		rngA := rand.New(rand.NewSource(seed))
		rngB := rand.New(rand.NewSource(seed))
		for _, n := range []int{0, 1, 2, 7, 100, 1023, 1024, 5000} {
			want := SampleBinomial(rngA, n, p)
			got := s.Sample(rngB, n)
			if got != want {
				t.Fatalf("p=%v n=%d: sampler %d, SampleBinomial %d", p, n, got, want)
			}
			// The streams must also stay aligned (same number of draws).
			if a, b := rngA.Float64(), rngB.Float64(); a != b {
				t.Fatalf("p=%v n=%d: rng streams diverged (%v vs %v)", p, n, a, b)
			}
		}
	}
}

// TestPoissonSamplerDrawIdentical pins PoissonSampler.Sample to
// SamplePoisson the same way: identical draws consumed, identical value,
// across the chunked (lambda > 30) and direct regimes.
func TestPoissonSamplerDrawIdentical(t *testing.T) {
	meta := rand.New(rand.NewSource(12))
	for _, lambda := range []float64{0, 0.3, 1, 12.5, 29.9, 30, 31, 75, 150.5} {
		var s PoissonSampler
		s.Reset(lambda)
		for trial := 0; trial < 50; trial++ {
			seed := meta.Int63()
			rngA := rand.New(rand.NewSource(seed))
			rngB := rand.New(rand.NewSource(seed))
			want := SamplePoisson(rngA, lambda)
			got := s.Sample(rngB)
			if got != want {
				t.Fatalf("lambda=%v: sampler %d, SamplePoisson %d", lambda, got, want)
			}
			if a, b := rngA.Float64(), rngB.Float64(); a != b {
				t.Fatalf("lambda=%v: rng streams diverged (%v vs %v)", lambda, a, b)
			}
		}
	}
}

// TestCategoricalSampleMatchesSearchFloat64s pins the inlined binary
// search to the sort.SearchFloat64s form it replaced: the smallest index
// with cdf[i] >= u, for the same uniform, on every draw.
func TestCategoricalSampleMatchesSearchFloat64s(t *testing.T) {
	meta := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		support := 1 + meta.Intn(12)
		weights := make([]float64, support)
		for i := range weights {
			weights[i] = meta.Float64()
		}
		weights[meta.Intn(support)] += 1 // keep the mass positive
		c := MustCategorical(weights)
		cdf := c.cdf
		seed := meta.Int63()
		rngA := rand.New(rand.NewSource(seed))
		rngB := rand.New(rand.NewSource(seed))
		for d := 0; d < 200; d++ {
			want := sort.SearchFloat64s(cdf, rngA.Float64())
			// SearchFloat64s finds the smallest i with cdf[i] >= u; for a u
			// exactly equal to a cdf entry both forms return that entry, and
			// the trailing cdf[len-1] = 1 bounds the index the same way.
			got := c.Sample(rngB)
			if got != want {
				t.Fatalf("trial %d draw %d: Sample %d, SearchFloat64s %d (cdf %v)",
					trial, d, got, want, cdf)
			}
		}
	}
}

// TestCategoricalIndexMatchesBinarySearch pins the guide-table lookup to
// the binary search (sort.SearchFloat64s: the smallest i with
// cdf[i] >= u), at every uniform where the two could part: on each
// cdf entry and its neighbours, on every bucket edge k/64 and its
// neighbours, at 0 and at the largest float64 below 1. Supports run from
// 1 to 64 cells with zero-mass cells mixed in (leading, inner and
// trailing), and one distribution whose running sum rounds above 1 before
// the forced final entry.
func TestCategoricalIndexMatchesBinarySearch(t *testing.T) {
	meta := rand.New(rand.NewSource(14))
	var cases [][]float64
	for support := 1; support <= 64; support++ {
		for rep := 0; rep < 4; rep++ {
			w := make([]float64, support)
			for i := range w {
				if meta.Intn(3) > 0 {
					w[i] = meta.Float64()
				}
			}
			w[meta.Intn(support)] += 0.5 // keep the mass positive
			cases = append(cases, w)
		}
	}
	// The running sum of this one reaches 1.0000000000000002 at index 2,
	// above the forced cdf[4] = 1.
	cases = append(cases, []float64{0.3, 0.6, 0.9, 0.2, 0})
	for ci, w := range cases {
		c := MustCategorical(w)
		us := []float64{0, math.Nextafter(1, 0), 1}
		for k := 0; k <= guideBuckets; k++ {
			us = append(us, float64(k)/guideBuckets)
		}
		us = append(us, c.cdf...)
		for _, u := range us { // ranges over the points so far only
			us = append(us, math.Nextafter(u, 0), math.Nextafter(u, 1))
		}
		for d := 0; d < 100; d++ {
			us = append(us, meta.Float64())
		}
		for _, u := range us {
			if u < 0 || u > 1 {
				continue
			}
			if got, want := c.Index(u), sort.SearchFloat64s(c.cdf, u); got != want {
				t.Fatalf("case %d (weights %v): Index(%v) = %d, binary search %d (cdf %v)",
					ci, w, u, got, want, c.cdf)
			}
		}
	}
}

// unmixSplitMix64 inverts the SplitMix64 finalizer, so a test can place a
// SplitMixSource right before a chosen output.
func unmixSplitMix64(y uint64) uint64 {
	inverse := func(c uint64) uint64 { // Newton iteration mod 2^64
		x := c
		for i := 0; i < 5; i++ {
			x *= 2 - c*x
		}
		return x
	}
	y ^= y>>31 ^ y>>62
	y *= inverse(0x94d049bb133111eb)
	y ^= y>>27 ^ y>>54
	y *= inverse(0xbf58476d1ce4e5b9)
	y ^= y>>30 ^ y>>60
	return y
}

// TestSplitMixSourceDrawIdentical is the concrete stream's contract: with
// Float64, Bernoulli and (through a *rand.Rand sharing the source) Intn
// interleaved at random, every value equals the one a twin stream drawing
// only through rand.Rand and SampleBernoulli yields, and the two states
// stay aligned after every call — so the emulation can mix direct and
// *rand.Rand draws on one stream without moving any draw.
func TestSplitMixSourceDrawIdentical(t *testing.T) {
	meta := rand.New(rand.NewSource(15))
	ps := []float64{0, 1, math.NaN(), 1e-9, -0.5, 1.5}
	for trial := 0; trial < 50; trial++ {
		seed := meta.Int63()
		src := NewSplitMixSource(seed)
		shared := rand.New(src)
		twinSrc := NewSplitMixSource(seed)
		twin := rand.New(twinSrc)
		for d := 0; d < 2000; d++ {
			switch op := meta.Intn(3); op {
			case 0:
				if got, want := src.Float64(), twin.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 %v, rand.Rand %v", seed, d, got, want)
				}
			case 1:
				p := meta.Float64()
				if k := meta.Intn(2 * len(ps)); k < len(ps) {
					p = ps[k]
				}
				if got, want := src.Bernoulli(p), SampleBernoulli(twin, p); got != want {
					t.Fatalf("seed %d draw %d: Bernoulli(%v) %v, SampleBernoulli %v", seed, d, p, got, want)
				}
			case 2:
				n := 1 + meta.Intn(100)
				if got, want := shared.Intn(n), twin.Intn(n); got != want {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, twin %d", seed, d, n, got, want)
				}
			}
			if src.state != twinSrc.state {
				t.Fatalf("seed %d draw %d: streams out of step", seed, d)
			}
		}
	}
}

// TestSplitMixSourceFloat64Retry places the source right before an output
// whose Int63 rounds to 1 in float64 and checks Float64 skips it exactly
// as rand.Rand.Float64 does.
func TestSplitMixSourceFloat64Retry(t *testing.T) {
	const top = ^uint64(0) // Int63 = 2^63-1, which rounds to 2^63
	if SplitMix64(unmixSplitMix64(top)) != top {
		t.Fatal("unmixSplitMix64 does not invert SplitMix64")
	}
	state := unmixSplitMix64(top) - GoldenGamma
	src := &SplitMixSource{state: state}
	twinSrc := &SplitMixSource{state: state}
	twin := rand.New(twinSrc)
	got, want := src.Float64(), twin.Float64()
	if got != want || got >= 1 {
		t.Fatalf("Float64 after a rounded-up draw: %v, rand.Rand %v", got, want)
	}
	if src.state != twinSrc.state || src.state != state+GoldenGamma+GoldenGamma {
		t.Fatal("Float64 did not consume exactly the rejected draw and one more")
	}
}

// BenchmarkCategoricalSample times one alert draw from a catalog-shaped
// 32-cell Beta-Binomial profile through Sample (rand.Rand uniform plus the
// guided lookup).
func BenchmarkCategoricalSample(b *testing.B) {
	c := MustBetaBinomial(31, 0.7, 3).Categorical()
	rng := rand.New(NewSplitMixSource(1))
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += c.Sample(rng)
	}
	benchSink = acc
}

// BenchmarkSplitMixFloat64 times one uniform from the SplitMix source,
// called directly and through the *rand.Rand interface wrapper.
func BenchmarkSplitMixFloat64(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		src := NewSplitMixSource(1)
		acc := 0.0
		for i := 0; i < b.N; i++ {
			acc += src.Float64()
		}
		benchSinkF = acc
	})
	b.Run("rand.Rand", func(b *testing.B) {
		rng := rand.New(NewSplitMixSource(1))
		acc := 0.0
		for i := 0; i < b.N; i++ {
			acc += rng.Float64()
		}
		benchSinkF = acc
	})
}

// Benchmark sinks keep results live.
var (
	benchSink  int
	benchSinkF float64
)
