package main

import (
	"math"
	"sort"
	"time"

	"tolerance/internal/telemetry"
)

// Ops tallies a workload's operations for fail_ratio. What one operation
// is depends on the workload: a scenario on emu-grid and solve-sweep, a
// lease on coord-short, a probe write on cluster-live.
type Ops struct {
	Attempted int64
	// Failed counts operations that failed or had to be retried.
	Failed int64
}

// Add accumulates other into o.
func (o *Ops) Add(other Ops) {
	o.Attempted += other.Attempted
	o.Failed += other.Failed
}

// Ratio is Failed / Attempted (0 when nothing was attempted).
func (o Ops) Ratio() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}

// scenarioOps counts scenarios: every scheduled scenario is attempted, and
// one that was not folded into the result failed.
func scenarioOps(scheduled, folded int64) Ops {
	failed := scheduled - folded
	if failed < 0 {
		failed = 0
	}
	return Ops{Attempted: scheduled, Failed: failed}
}

// leaseOps counts a coordinator's leases from its manifest counters. A
// lease that expired was re-leased, so it counts as a failure, and so does
// every record the coordinator rejected.
func leaseOps(counters map[string]int64) Ops {
	return Ops{
		Attempted: counters["coord.leases_granted"],
		Failed:    counters["coord.leases_expired"] + counters["coord.records_rejected"],
	}
}

// probeOps counts the cluster backend's probe writes from the cluster.*
// counters: every probe either committed (probe_ok) or timed out or failed
// (probe_failures).
func probeOps(counters map[string]int64) Ops {
	ok, failed := counters["cluster.probe_ok"], counters["cluster.probe_failures"]
	return Ops{Attempted: ok + failed, Failed: failed}
}

// probesWithin returns how many probes met a latency limit. The cluster
// backend observes every probe — committed or not — into the
// cluster.probe_latency_us histogram, whose values are nanoseconds despite
// the name. Only committed probes can meet a limit, so the count is capped
// at ok: a failed probe misses every limit, however fast it failed. The
// histogram's buckets bound the count from above where the limit falls
// inside a bucket.
func probesWithin(h telemetry.HistogramSnapshot, ok int64, limit time.Duration) int64 {
	var within int64
	for _, b := range h.Buckets {
		if b.Le <= limit.Nanoseconds() {
			within += b.Count
		}
	}
	return min(within, ok)
}

// Latencies records per-request outcomes of a closed-loop client. A failed
// request is kept as an infinite latency, so it sits above every
// percentile it affects and misses any limit.
type Latencies struct {
	values []float64 // seconds; +Inf for failures
	failed int
}

// Observe records one request.
func (l *Latencies) Observe(d time.Duration, err error) {
	if err != nil {
		l.failed++
		l.values = append(l.values, math.Inf(1))
		return
	}
	l.values = append(l.values, d.Seconds())
}

// Ops returns the requests as operations.
func (l *Latencies) Ops() Ops {
	return Ops{Attempted: int64(len(l.values)), Failed: int64(l.failed)}
}

// Within is the share of requests that completed within limit.
func (l *Latencies) Within(limit time.Duration) float64 {
	if len(l.values) == 0 {
		return 0
	}
	n := 0
	for _, v := range l.values {
		if v <= limit.Seconds() {
			n++
		}
	}
	return float64(n) / float64(len(l.values))
}

// Percentile is the nearest-rank p-th percentile in seconds, counting
// failures as infinitely slow.
func (l *Latencies) Percentile(p float64) float64 {
	s := append([]float64(nil), l.values...)
	sort.Float64s(s)
	return Percentile(s, p)
}
