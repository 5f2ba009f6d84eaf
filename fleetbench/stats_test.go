package main

import (
	"math"
	"testing"
	"time"
)

// The expected quartiles are what Python's statistics.quantiles(data, n=4)
// returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data           []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5.5, 1.2, 3.1}, 1.2, 3.1, 5.5},
		{[]float64{2, 4, 4, 5, 7, 9, 10.5}, 4, 5, 9},
	}
	for _, c := range cases {
		s := Summarize(c.data)
		if !near(s.Q1, c.q1) || !near(s.Median, c.median) || !near(s.Q3, c.q3) {
			t.Errorf("Summarize(%v) = q1 %v median %v q3 %v, want %v %v %v",
				c.data, s.Q1, s.Median, s.Q3, c.q1, c.median, c.q3)
		}
		if s.N != len(c.data) {
			t.Errorf("N = %d, want %d", s.N, len(c.data))
		}
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	data := []float64{3, 1, 2}
	Summarize(data)
	if data[0] != 3 || data[1] != 1 || data[2] != 2 {
		t.Fatalf("input reordered: %v", data)
	}
}

func TestSingleSampleIsItsOwnQuartiles(t *testing.T) {
	s := Summarize([]float64{4.2})
	if s.Q1 != 4.2 || s.Median != 4.2 || s.Q3 != 4.2 {
		t.Fatalf("got %+v", s)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{19, 0, false},
		{20, 50, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		p, ok := TailPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok {
			// On the data 1..n, the samples beyond the percentile's value
			// are n - value.
			data := make([]float64, c.n)
			for i := range data {
				data[i] = float64(i + 1)
			}
			if beyond := c.n - int(Percentile(data, p)); beyond < 10 {
				t.Errorf("n=%d p%v leaves %d beyond", c.n, p, beyond)
			}
		}
	}
}

func TestSummaryNamesTail(t *testing.T) {
	data := make([]float64, 1000)
	for i := range data {
		data[i] = float64(i + 1)
	}
	s := Summarize(data)
	if s.Tail != "p99" || s.TailValue != 990 {
		t.Fatalf("tail = %s %v, want p99 990", s.Tail, s.TailValue)
	}
	if s := Summarize(data[:15]); s.Tail != "" {
		t.Fatalf("15 samples must not name a tail, got %s", s.Tail)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {25, 10}, {50, 20}, {51, 30}, {100, 40}} {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// A run whose reference work took twice refNominal ran on a host at half
// the reference speed: its times halve and its rates double when scaled,
// and the .measured lines keep the times as taken.
func TestMetricsScaleToTheReferenceHost(t *testing.T) {
	s := sample{wall: 2 * time.Second, setup: 100 * time.Millisecond, scenarios: 101}
	r := e2eResult{samples: []sample{s, s, s}}
	refs := []time.Duration{2 * refNominal, refNominal, 3 * refNominal, 2 * refNominal}
	if k := hostScale(refs); !near(k, 0.5) {
		t.Fatalf("hostScale = %v, want 0.5", k)
	}
	m := r.metrics(refs)
	for name, want := range map[string]float64{
		"wall_s": 1, "setup_s": 0.05, "scenarios_per_s": 2 * 100 / 1.9,
		"wall_s.measured": 2, "setup_s.measured": 0.1, "scenarios_per_s.measured": 100 / 1.9,
		"host.ref_ms": 2 * float64(refNominal.Milliseconds()),
	} {
		if got := m[name].Median; !near(got, want) {
			t.Errorf("%s median = %v, want %v", name, got, want)
		}
	}
	if q := m["wall_s"]; !near(q.Q1, 1) || !near(q.Q3, 1) {
		t.Errorf("wall_s quartiles = %v, %v, want 1, 1", q.Q1, q.Q3)
	}
}
