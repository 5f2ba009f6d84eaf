package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"tolerance/internal/telemetry"
)

func TestProbeOpsCountsEveryFailedProbe(t *testing.T) {
	ops := probeOps(map[string]int64{"cluster.probe_ok": 5, "cluster.probe_failures": 11})
	if ops.Attempted != 16 || ops.Failed != 11 {
		t.Fatalf("ops = %+v, want 16 attempted, 11 failed", ops)
	}
	if got := ops.Ratio(); got != 11.0/16 {
		t.Fatalf("ratio = %v", got)
	}
}

func TestLeaseOpsCountsExpiriesAndRejections(t *testing.T) {
	ops := leaseOps(map[string]int64{
		"coord.leases_granted": 20, "coord.leases_expired": 2, "coord.records_rejected": 1,
	})
	if ops.Attempted != 20 || ops.Failed != 3 {
		t.Fatalf("ops = %+v, want 20 attempted, 3 failed", ops)
	}
}

func TestScenarioOpsCountsUnfoldedScenarios(t *testing.T) {
	if ops := scenarioOps(100, 97); ops.Attempted != 100 || ops.Failed != 3 {
		t.Fatalf("ops = %+v", ops)
	}
	if ops := scenarioOps(100, 100); ops.Ratio() != 0 {
		t.Fatalf("complete run has fail ratio %v", ops.Ratio())
	}
	if (Ops{}).Ratio() != 0 {
		t.Fatal("no operations must give ratio 0")
	}
}

func TestOpsAdd(t *testing.T) {
	var o Ops
	o.Add(Ops{Attempted: 3, Failed: 1})
	o.Add(Ops{Attempted: 5, Failed: 2})
	if o.Attempted != 8 || o.Failed != 3 {
		t.Fatalf("sum = %+v", o)
	}
}

// A failed probe is observed into the latency histogram like a committed
// one; it must not count as meeting a limit even when it failed fast.
func TestProbesWithinNeverCountsFailedProbes(t *testing.T) {
	h := telemetry.HistogramSnapshot{
		Count: 10,
		Buckets: []telemetry.BucketCount{
			{Le: int64(10 * time.Millisecond), Count: 8}, // 6 commits + 2 fast failures
			{Le: int64(time.Second), Count: 2},           // 2 timeouts
		},
	}
	if got := probesWithin(h, 6, 100*time.Millisecond); got != 6 {
		t.Fatalf("within = %d, want 6 (only committed probes)", got)
	}
	if got := probesWithin(h, 6, time.Millisecond); got != 0 {
		t.Fatalf("within 1ms = %d, want 0", got)
	}
	if got := probesWithin(h, 0, time.Hour); got != 0 {
		t.Fatalf("no committed probe can meet a limit, got %d", got)
	}
}

func TestLatenciesFailureMissesEveryLimit(t *testing.T) {
	var l Latencies
	l.Observe(2*time.Millisecond, nil)
	l.Observe(3*time.Millisecond, nil)
	l.Observe(time.Microsecond, errors.New("timeout")) // fast, but failed
	l.Observe(4*time.Millisecond, nil)

	ops := l.Ops()
	if ops.Attempted != 4 || ops.Failed != 1 {
		t.Fatalf("ops = %+v, want 4 attempted, 1 failed", ops)
	}
	if got := l.Within(time.Hour); got != 0.75 {
		t.Fatalf("within 1h = %v, want 0.75: a failure misses every limit", got)
	}
	if got := l.Within(2500 * time.Microsecond); got != 0.25 {
		t.Fatalf("within 2.5ms = %v, want 0.25", got)
	}
	if !math.IsInf(l.Percentile(100), 1) {
		t.Fatal("the slowest request is the failed one")
	}
	if got := l.Percentile(50); got != 0.003 {
		t.Fatalf("p50 = %v, want 0.003", got)
	}
}
