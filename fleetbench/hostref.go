package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is a share of a machine whose speed
// drifts with its other tenants' load: on a 2-vCPU VM, runs of one
// workload a few minutes apart differed by 20-30% in wall time while the
// program and its inputs stayed the same. A median over one run cannot
// remove a drift that lasts longer than the run. So each run also times a
// fixed reference workload — this file, which no change to the program
// alters — before and after each of the program's iterations, and the
// gated time metrics are scaled by refNominal / (the run's median
// reference time): the time the run would have taken on a host that runs
// the reference in refNominal. The times as measured and the reference
// times are printed beside them. Over 12 minutes of alternating
// iterations on that VM, scaling cut the spread (IQR / median) of 50 s
// medians from 0.136 to 0.083 on emu-grid and from 0.131 to 0.056 on
// solve-sweep; it does not help coord-short, whose drift is in fsync and
// cross-process wake-ups.

// refNominal sets the scale of the scaled metrics: a run whose reference
// measurements have a median of refNominal reports its times as measured.
// It is about the reference's time on the 2-vCPU Xeon VM the benchmark was
// tuned on.
const refNominal = 80 * time.Millisecond

// refChunks and refDraws size one reference measurement: every thread
// runs refChunks chunks of refDraws draws.
const (
	refChunks = 4
	refDraws  = 150_000
)

// hostRef times one reference measurement: one copy of the reference
// work on each of GOMAXPROCS threads at once, from the start until the
// last copy ends, so every vCPU the program's threads may run on is
// sampled. (On a 2-vCPU VM this tracked the program's drift better than
// one copy on one thread.)
func hostRef() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refWork(uint64(g))
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// refSink keeps each copy's result, so the compiler cannot drop the work.
var refSink [64]float64

// refWork does one copy of the reference work. It resembles the
// program's hot path: a splitmix64 stream turned into exponential and
// categorical draws, a small map of counts and short sorts.
func refWork(id uint64) {
	x := 0x9e3779b97f4a7c15 + id
	acc := 0.0
	counts := make(map[uint64]int, 64)
	var weights [16]float64
	buf := make([]float64, 0, 256)
	for c := 0; c < refChunks; c++ {
		clear(counts)
		clear(weights[:])
		for i := 0; i < refDraws; i++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			u := float64(z>>11) / (1 << 53)
			e := -math.Log1p(-u)
			k := int(z>>60) & 15
			weights[k] += e
			counts[z&63]++
			buf = append(buf, e*weights[k])
			if len(buf) == cap(buf) {
				sort.Float64s(buf)
				acc += buf[len(buf)/2]
				buf = buf[:0]
			}
		}
		acc += float64(counts[x&63])
	}
	refSink[id%uint64(len(refSink))] = acc
}

// hostScale is the factor that maps the run's times to the reference
// host: refNominal over the median of the reference times.
func hostScale(refs []time.Duration) float64 {
	s := make([]float64, len(refs))
	for i, d := range refs {
		s[i] = d.Seconds()
	}
	sort.Float64s(s)
	return refNominal.Seconds() / Median(s)
}
