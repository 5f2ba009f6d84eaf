package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"tolerance/internal/cmdp"
	"tolerance/internal/dist"
	"tolerance/internal/emulation"
	"tolerance/internal/fleet"
	"tolerance/internal/minbft"
	"tolerance/internal/nodemodel"
	"tolerance/internal/opt"
	"tolerance/internal/recovery"
	"tolerance/internal/replica"
	"tolerance/internal/strategies"
	"tolerance/internal/telemetry"
	"tolerance/internal/transport"
	"tolerance/internal/usig"
)

// layerMetric is one per-layer metric of the traced run (BENCHMARK.json's
// per_layer list, in the same order).
type layerMetric struct{ name, unit string }

var perLayer = []layerMetric{
	{"dist.poisson_ns", "ns"},
	{"dist.binomial_ns", "ns"},
	{"dist.categorical_ns", "ns"},
	{"ids.fit_ms", "ms"},
	{"emulation.scenario_us", "us"},
	{"emulation.ns_per_step", "ns"},
	{"emulation.allocs_per_scenario", "count"},
	{"fleet.run_s", "s"},
	{"fleet.worker_util", "share"},
	{"fleet.record_gap_us.p50", "us"},
	{"fleet.record_gap_us.p99", "us"},
	{"fleet.scaling_1to2", "ratio"},
	{"strategies.fit_ms", "ms"},
	{"strategies.policy_ms.p50", "ms"},
	{"strategies.policy_ms.p99", "ms"},
	{"cache.hit_ratio", "share"},
	{"cache.singleflight_waits", "count"},
	{"recovery.dp_ms", "ms"},
	{"recovery.train_ms", "ms"},
	{"training.evals_per_s", "1/s"},
	{"cmdp.solve_ms", "ms"},
	{"ckpt.append_us.p50", "us"},
	{"ckpt.append_us.p99", "us"},
	{"ckpt.bytes_per_record", "B"},
	{"ckpt.syncs_per_record", "count"},
	{"ckpt.close_ms", "ms"},
	{"ckpt.read_records_per_s", "1/s"},
	{"transport.frames_per_record", "count"},
	{"transport.bytes_per_record", "B"},
	{"transport.send_us.p50", "us"},
	{"transport.send_us.p99", "us"},
	{"coord.lease_rtt_us.p50", "us"},
	{"coord.lease_rtt_us.p99", "us"},
	{"coord.ack_rtt_us.p50", "us"},
	{"coord.ack_rtt_us.p99", "us"},
	{"coord.worker_wait_share", "share"},
	{"coord.leases_expired", "count"},
	{"coord.records_rejected", "count"},
	{"cluster.scenario_s", "s"},
	{"cluster.probe_ok", "count"},
	{"cluster.probe_failures", "count"},
	{"cluster.probe_fail_ratio", "share"},
	{"cluster.probe_latency_ms", "ms"},
	{"cluster.replica_restarts", "count"},
	{"cluster.restart_failures", "count"},
	{"cluster.config_failures", "count"},
	{"minbft.submit_ms.p50", "ms"},
	{"minbft.submit_ms.p99", "ms"},
	{"minbft.writes_per_s", "1/s"},
	{"usig.create_ui_us", "us"},
	{"usig.verify_ui_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// Shares of the run's budget for the time-boxed loops. The one-pass
// phases (scaling, cold policies, coordinator, cluster) take what their
// inputs need.
const (
	shareFleet       = 0.25
	shareDist        = 0.02 // per sampler
	shareFit         = 0.03
	shareRunner      = 0.05
	shareDP          = 0.03
	shareTrain       = 0.05
	shareLP          = 0.03
	sharePolicy      = 0.10
	shareCkpt        = 0.03
	shareMinBFT      = 0.07
	shareUSIG        = 0.02 // per operation
	scalingSteps     = 1_000_000
	scalingScenarios = 10_000
)

// tracer times calls into each layer from the benchmark's own code. Each
// sample list holds one metric's observations; the printed value is their
// median, or the named percentile for .p50/.p99 metrics.
type tracer struct {
	w       workload
	dir     string
	seed    int64
	budget  time.Duration
	suite   fleet.Suite
	cell    fleet.Cell // the suite's first TOLERANCE cell
	samples map[string][]float64
	notes   []string
	// scenarios counts the scenarios the traced run executed.
	scenarios int64

	records []fleet.RunRecord // the traced fleet run's records, in order
	result  []byte            // the traced fleet run's result as JSON
	warm    *fleet.StrategyCache
	// scaling is the single-process result of the scaling grid, which
	// the coordinated run of the same grid must reproduce.
	scaling []byte
	// clusterSnap holds the cluster.* series of the run that exercised
	// the cluster backend.
	clusterSnap *telemetry.Snapshot
}

func (t *tracer) add(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

func (t *tracer) slice(share float64) time.Duration {
	return time.Duration(share * float64(t.budget))
}

// repeat calls f until the time box is spent, at least minReps times.
func repeat(box time.Duration, minReps int, f func() error) error {
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < box; i++ {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

func runTraced(ctx context.Context, w workload, dir string, seed int64, budget time.Duration, rep *report, res *result) error {
	t := &tracer{w: w, dir: dir, seed: seed, budget: budget, suite: w.suite(seed, 0), samples: map[string][]float64{}}
	found := false
	for _, c := range t.suite.Cells() {
		if c.Policy == "TOLERANCE" {
			t.cell, found = c, true
			break
		}
	}
	if !found {
		return fmt.Errorf("%s: suite has no TOLERANCE cell", w.name)
	}
	phases := []struct {
		name string
		run  func(context.Context) error
	}{
		{"fleet", t.fleetPhase},
		{"scaling", t.scalingPhase},
		{"policies", t.policyPhase},
		{"fits", t.fitPhase},
		{"dist", t.distPhase},
		{"emulation", t.runnerPhase},
		{"solvers", t.solverPhase},
		{"checkpoint", t.checkpointPhase},
		{"coordinator", t.coordPhase},
		{"cluster", t.clusterPhase},
		{"minbft", t.minbftPhase},
		{"usig", t.usigPhase},
	}
	for _, ph := range phases {
		if err := ph.run(ctx); err != nil {
			return fmt.Errorf("%s trace, %s phase: %w", w.name, ph.name, err)
		}
	}

	rep.Metrics = map[string]Summary{}
	rep.Units = map[string]string{}
	rep.Notes = t.notes
	for _, m := range perLayer {
		vals := t.samples[m.name]
		if len(vals) == 0 {
			return fmt.Errorf("%s trace: no samples for %s", w.name, m.name)
		}
		s := Summarize(vals)
		rep.Metrics[m.name], rep.Units[m.name] = s, m.unit
		res.Metrics[m.name] = metric{Value: s.Median, Unit: m.unit}
	}
	rep.Stamp.Samples = len(t.samples["trace.overhead_ratio"])
	res.Correct = true
	res.Attempted = t.scenarios
	return nil
}

// percentiles adds name.p50 and name.p99 from raw observations (already
// in the metric's unit) and notes the sample count and the highest
// percentile with ten samples beyond it.
func (t *tracer) percentiles(name string, vals []float64) {
	s := Summarize(vals)
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	t.add(name+".p50", s.Median)
	t.add(name+".p99", Percentile(sorted, 99))
	if s.Tail != "" {
		t.notes = append(t.notes, fmt.Sprintf("%s: n=%d, median %s, %s %s", name, s.N,
			formatFloat(s.Median), s.Tail, formatFloat(s.TailValue)))
	}
}

// runFleet runs the suite in process and returns its wall time and result.
func runFleet(ctx context.Context, suite fleet.Suite, cfg fleet.Config) (time.Duration, *fleet.Result, error) {
	start := time.Now()
	res, err := fleet.Run(ctx, suite, cfg)
	return time.Since(start), res, err
}

// learnedSuite is the suite with the workload's training parallelism, a
// throughput knob outside the suite's identity (as -learned-workers).
func (t *tracer) learnedSuite() fleet.Suite {
	s := t.suite
	if t.w.learnedWorkers > 0 {
		lc := fleet.LearnedConfig{}
		if s.Learned != nil {
			lc = *s.Learned
		}
		lc.Workers = t.w.learnedWorkers
		s.Learned = &lc
	}
	return s
}

// fleetPhase alternates untraced and traced in-process runs of the
// workload's suite. The traced run carries a telemetry collector and an
// OnRecord hook timing record inter-arrival; the ratio of the two walls
// is the tracing overhead.
func (t *tracer) fleetPhase(ctx context.Context) error {
	suite := t.learnedSuite()
	box := t.slice(shareFleet)
	start := time.Now()
	var gaps []float64
	for pair := 0; pair == 0 || time.Since(start) < box; pair++ {
		plainWall, plain, err := runFleet(ctx, suite, fleet.Config{Workers: t.w.workers})
		if err != nil {
			return err
		}
		col := telemetry.New()
		cache := fleet.NewStrategyCache()
		cache.Instrument(col)
		var records []fleet.RunRecord
		last := time.Time{}
		onRecord := func(r fleet.RunRecord) error {
			now := time.Now()
			if !last.IsZero() {
				gaps = append(gaps, float64(now.Sub(last).Nanoseconds())/1e3)
			}
			last = now
			records = append(records, r)
			return nil
		}
		tracedWall, traced, err := runFleet(ctx, suite, fleet.Config{
			Workers: t.w.workers, Cache: cache, Telemetry: col, OnRecord: onRecord,
		})
		if err != nil {
			return err
		}
		t.scenarios += int64(2 * suite.NumScenarios())
		a, _ := json.Marshal(plain)
		b, err := json.Marshal(traced)
		if err != nil {
			return err
		}
		if t.w.deterministic && !bytes.Equal(a, b) {
			return fmt.Errorf("traced and untraced results differ")
		}
		if err := checkResult(b, suite); err != nil {
			return err
		}
		snap := col.Snapshot()
		if err := checkFolded(snap, int64(suite.NumScenarios())); err != nil {
			return err
		}
		t.add("trace.overhead_ratio", tracedWall.Seconds()/plainWall.Seconds())
		t.add("fleet.run_s", tracedWall.Seconds())
		t.add("fleet.worker_util", float64(snap.Counter(fleet.MetricWorkerBusyNS))/
			(float64(t.w.workers)*float64(tracedWall.Nanoseconds())))
		stats := cache.Stats()
		hits := stats.PolicyHits + stats.RecoveryHits + stats.ReplicationHits + stats.FitHits
		misses := stats.PolicyBuilds + stats.RecoverySolves + stats.ReplicationSolves + stats.FitSolves
		t.add("cache.hit_ratio", float64(hits)/float64(max(1, hits+misses)))
		t.add("cache.singleflight_waits", float64(snap.Counter("cache.singleflight_waits")))
		t.records, t.result, t.warm = records, b, cache
		if t.w.cluster {
			t.clusterSnap = &snap
		}
	}
	if len(gaps) == 0 {
		gaps = []float64{0}
	}
	t.percentiles("fleet.record_gap_us", gaps)
	return nil
}

// scalingSuite is the workload's grid on the emulation backend with as
// many seeds per cell as fit about scalingSteps simulated steps, capped at
// scalingScenarios scenarios: enough work that the timing is not a few
// milliseconds of fixed cost, little enough to fit the run.
func (t *tracer) scalingSuite() fleet.Suite {
	s := t.suite
	s.Backends = nil
	seeds := scalingSteps / (s.NumCells() * s.Steps)
	s.SeedsPerCell = max(1, min(seeds, scalingScenarios/s.NumCells()))
	return s
}

// scalingPhase times the emulation grid with one worker and with two on
// the warm strategy cache, so the ratio is engine dispatch and fold, not
// solves. An untimed pass first fills the cache's per-suite scenario
// templates, and the timed runs go in 1-2-2-1 order so that a host
// slowing or speeding up during the phase cancels out of the ratio.
func (t *tracer) scalingPhase(ctx context.Context) error {
	s := t.scalingSuite()
	if _, _, err := runFleet(ctx, s, fleet.Config{Workers: 2, Cache: t.warm}); err != nil {
		return err
	}
	var wall [3]time.Duration // by worker count
	for _, workers := range []int{1, 2, 2, 1} {
		d, res, err := runFleet(ctx, s, fleet.Config{Workers: workers, Cache: t.warm})
		if err != nil {
			return err
		}
		got, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if t.scaling == nil {
			t.scaling = got
		} else if !bytes.Equal(got, t.scaling) {
			return fmt.Errorf("%d-worker result differs from the 1-worker one", workers)
		}
		wall[workers] += d
	}
	t.scenarios += int64(5 * s.NumScenarios())
	t.add("fleet.scaling_1to2", wall[1].Seconds()/wall[2].Seconds())
	return nil
}

// policyPhase resolves the grid's policies on a cold cache, timing each
// call that built a policy, until its time box is spent.
func (t *tracer) policyPhase(ctx context.Context) error {
	suite := t.learnedSuite()
	cache := fleet.NewStrategyCache()
	box := t.slice(sharePolicy)
	start := time.Now()
	var ms []float64
	for _, cell := range suite.Cells() {
		if len(ms) >= 3 && time.Since(start) > box {
			break
		}
		before := cache.Stats().PolicyBuilds
		t0 := time.Now()
		if _, err := cache.PolicyFor(ctx, cell, suite); err != nil {
			return err
		}
		d := time.Since(t0)
		if cache.Stats().PolicyBuilds > before {
			ms = append(ms, float64(d.Nanoseconds())/1e6)
		}
	}
	t.percentiles("strategies.policy_ms", ms)
	return nil
}

// fitSeed is the suite's offline-fit seed, as the engine derives it.
func (t *tracer) fitSeed() int64 { return emulation.FitStreamSeed(t.suite.Seed) }

func (t *tracer) fitSamples() int {
	if t.suite.FitSamples > 0 {
		return t.suite.FitSamples
	}
	return 2000
}

// fitPhase times the offline Ẑ fit directly (ids.fit_ms) and through a
// cold strategy cache (strategies.fit_ms) at the suite's M.
func (t *tracer) fitPhase(context.Context) error {
	m, seed := t.fitSamples(), t.fitSeed()
	err := repeat(t.slice(shareFit), 3, func() error {
		t0 := time.Now()
		if _, err := emulation.NewFitSet(m, seed); err != nil {
			return err
		}
		t.add("ids.fit_ms", float64(time.Since(t0).Nanoseconds())/1e6)
		return nil
	})
	if err != nil {
		return err
	}
	return repeat(t.slice(shareFit), 3, func() error {
		cache := fleet.NewStrategyCache()
		t0 := time.Now()
		if _, err := cache.Fits(m, seed); err != nil {
			return err
		}
		t.add("strategies.fit_ms", float64(time.Since(t0).Nanoseconds())/1e6)
		return nil
	})
}

// splitMix is the SplitMix64 source the emulation's node and workload
// streams use.
type splitMix struct{ state uint64 }

func (s *splitMix) Seed(seed int64) { s.state = uint64(seed) }
func (s *splitMix) Uint64() uint64 {
	s.state += dist.GoldenGamma
	return dist.SplitMix64(s.state)
}
func (s *splitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

// sink keeps sampler results live.
var sink int

// drawLoop times batches of draws and adds ns per draw per batch.
func (t *tracer) drawLoop(name string, draw func() int) error {
	const batch = 100_000
	return repeat(t.slice(shareDist), 5, func() error {
		acc := 0
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			acc += draw()
		}
		t.add(name, float64(time.Since(t0).Nanoseconds())/batch)
		sink += acc
		return nil
	})
}

// distPhase times the three per-step samplers at the cell's workload: the
// Poisson session arrivals at lambda, the binomial departures over the
// steady-state session count at p = 1/mean service, and an alert draw
// from the first catalog container's no-intrusion profile.
func (t *tracer) distPhase(context.Context) error {
	wl := t.cell.Workload
	rng := rand.New(&splitMix{state: uint64(t.seed)})
	var ps dist.PoissonSampler
	ps.Reset(wl.Lambda)
	if err := t.drawLoop("dist.poisson_ns", func() int { return ps.Sample(rng) }); err != nil {
		return err
	}
	var bs dist.BinomialSampler
	bs.Reset(1 / wl.MeanServiceSteps)
	n := int(math.Round(wl.Lambda * wl.MeanServiceSteps))
	if err := t.drawLoop("dist.binomial_ns", func() int { return bs.Sample(rng, n) }); err != nil {
		return err
	}
	catalog, err := emulation.Catalog()
	if err != nil {
		return err
	}
	alerts := catalog[0].Profile.NoIntrusion
	return t.drawLoop("dist.categorical_ns", func() int { return alerts.Sample(rng) })
}

// params is the cell's node model on the Table 8 observation model.
func cellParams(c fleet.Cell) nodemodel.Params {
	p := nodemodel.DefaultParams()
	p.PA, p.PC1, p.PC2, p.PU, p.Eta = c.PA, c.PC1, c.PC2, c.PU, c.Eta
	return p
}

// runnerPhase times warm Runner.RunInto calls on the cell's emulation
// scenario at the suite's step count, counting allocations per scenario.
func (t *tracer) runnerPhase(ctx context.Context) error {
	cache := fleet.NewStrategyCache()
	policy, err := cache.PolicyFor(ctx, t.cell, t.suite)
	if err != nil {
		return err
	}
	fits, err := cache.Fits(t.fitSamples(), t.fitSeed())
	if err != nil {
		return err
	}
	c := t.cell
	sc := emulation.Scenario{
		N1: c.N1, SMax: c.SMax, K: c.K, F: c.F, DeltaR: c.DeltaR, Steps: t.suite.Steps,
		Seed: t.seed, Params: cellParams(c), Policy: policy,
		FitSamples: fits.Samples(), FitSeed: fits.Seed(), Fits: fits, Workload: c.Workload,
	}
	runner := emulation.NewRunner()
	if _, err := runner.RunInto(sc); err != nil { // warm the runner's buffers
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runs := 0
	err = repeat(t.slice(shareRunner), 5, func() error {
		sc.Seed++
		t0 := time.Now()
		if _, err := runner.RunInto(sc); err != nil {
			return err
		}
		d := time.Since(t0)
		runs++
		t.add("emulation.scenario_us", float64(d.Nanoseconds())/1e3)
		t.add("emulation.ns_per_step", float64(d.Nanoseconds())/float64(sc.Steps))
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	t.add("emulation.allocs_per_scenario", float64(after.Mallocs-before.Mallocs)/float64(runs))
	return nil
}

// learnedBudget is the suite's Algorithm 1 budget with the strategy
// defaults filled in.
func (t *tracer) learnedBudget() (budget, episodes, horizon int) {
	budget, episodes, horizon = strategies.DefaultBudget, strategies.DefaultEpisodes, strategies.DefaultHorizon
	if lc := t.suite.Learned; lc != nil {
		if lc.Budget > 0 {
			budget = lc.Budget
		}
		if lc.Episodes > 0 {
			episodes = lc.Episodes
		}
		if lc.Horizon > 0 {
			horizon = lc.Horizon
		}
	}
	return budget, episodes, horizon
}

// solverPhase times the cell's DP solve, one Algorithm 1 (CEM) training
// run at the suite's budget, and the replication LP.
func (t *tracer) solverPhase(ctx context.Context) error {
	p, dr := cellParams(t.cell), t.cell.DeltaR
	arena := recovery.NewArena()
	var sol *recovery.DPSolution
	err := repeat(t.slice(shareDP), 3, func() error {
		t0 := time.Now()
		var err error
		sol, err = recovery.SolveDPWith(p, recovery.DPConfig{DeltaR: dr}, arena)
		t.add("recovery.dp_ms", float64(time.Since(t0).Nanoseconds())/1e6)
		return err
	})
	if err != nil {
		return err
	}

	po, _ := opt.ByName("cem")
	budget, episodes, horizon := t.learnedBudget()
	workers := max(1, t.w.learnedWorkers)
	trainSeed := t.seed
	err = repeat(t.slice(shareTrain), 1, func() error {
		trainSeed++
		t0 := time.Now()
		res, err := recovery.Algorithm1(ctx, p, recovery.Algorithm1Config{
			DeltaR: dr, Optimizer: po, Budget: budget, Episodes: episodes, Horizon: horizon,
			Seed: trainSeed, Workers: workers,
		})
		if err != nil {
			return err
		}
		d := time.Since(t0)
		t.add("recovery.train_ms", float64(d.Nanoseconds())/1e6)
		t.add("training.evals_per_s", float64(res.Search.Evaluations)/d.Seconds())
		return nil
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(t.seed))
	q, err := cmdp.EstimateHealthyProb(rng, p, sol.Strategy(dr),
		cmdp.DefaultEstimateEpisodes, cmdp.DefaultEstimateHorizon, dr)
	if err != nil {
		return err
	}
	model, err := cmdp.NewBinomialModel(t.cell.SMax, t.cell.F, t.suite.EpsilonA, q, 0)
	if err != nil {
		return err
	}
	return repeat(t.slice(shareLP), 3, func() error {
		t0 := time.Now()
		_, err := cmdp.Solve(model)
		t.add("cmdp.solve_ms", float64(time.Since(t0).Nanoseconds())/1e6)
		return err
	})
}

// checkpointPhase writes the traced fleet run's records through a
// CheckpointWriter, timing each Append and the Close, then reads the file
// back with ReadCheckpoint + MergeRecords and checks the merged result
// against the run's.
func (t *tracer) checkpointPhase(context.Context) error {
	path := filepath.Join(t.dir, "trace.jsonl")
	var appendUS []float64
	err := repeat(t.slice(shareCkpt), 1, func() error {
		_ = os.Remove(path)
		col := telemetry.New()
		w, err := fleet.CreateCheckpoint(path, t.suite, fleet.Shard{})
		if err != nil {
			return err
		}
		w.Instrument(col)
		for _, r := range t.records {
			t0 := time.Now()
			if err := w.Append(r); err != nil {
				w.Close()
				return err
			}
			appendUS = append(appendUS, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		t0 := time.Now()
		if err := w.Close(); err != nil {
			return err
		}
		t.add("ckpt.close_ms", float64(time.Since(t0).Nanoseconds())/1e6)
		n := float64(len(t.records))
		t.add("ckpt.syncs_per_record", float64(col.Snapshot().Counter(fleet.MetricCheckpointSyncs))/n)

		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			data = data[i+1:] // the header line is not a record
		}
		t.add("ckpt.bytes_per_record", float64(len(data))/n)

		t0 = time.Now()
		ck, err := fleet.ReadCheckpoint(path)
		if err != nil {
			return err
		}
		merged, err := fleet.MergeRecords(ck.Suite, ck.Records)
		if err != nil {
			return err
		}
		t.add("ckpt.read_records_per_s", n/time.Since(t0).Seconds())
		got, err := json.Marshal(merged)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, t.result) {
			return fmt.Errorf("merged checkpoint differs from the run's result")
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.percentiles("ckpt.append_us", appendUS)
	return nil
}

// coordPhase runs the scaling grid through fleet.Coordinate and one
// fleet.ConnectWorker (one execution slot, warm cache) over loopback TCP,
// both endpoints wrapped to time sends and request/reply round trips, and
// checks the merged result against the single-process one.
func (t *tracer) coordPhase(ctx context.Context) error {
	s := t.scalingSuite()
	cep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	wep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		cep.Close()
		return err
	}
	coordEP, workerEP := newTracedEndpoint(cep, false), newTracedEndpoint(wep, true)
	defer coordEP.Close()
	defer workerEP.Close()

	col := telemetry.New()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type coordResult struct {
		res *fleet.Result
		err error
	}
	done := make(chan coordResult, 1)
	go func() {
		res, err := fleet.Coordinate(ctx, s, fleet.CoordinatorConfig{Endpoint: coordEP, Telemetry: col})
		done <- coordResult{res, err}
	}()
	t0 := time.Now()
	werr := fleet.ConnectWorker(ctx, fleet.WorkerConfig{
		Endpoint: workerEP, Coordinator: cep.Addr(), Workers: 1, Cache: t.warm,
	})
	session := time.Since(t0)
	if werr != nil && !errors.Is(werr, fleet.ErrDrained) {
		cancel()
		<-done
		return fmt.Errorf("worker: %w", werr)
	}
	cr := <-done
	if cr.err != nil {
		return fmt.Errorf("coordinator: %w", cr.err)
	}
	if got, _ := json.Marshal(cr.res); !bytes.Equal(got, t.scaling) {
		return fmt.Errorf("coordinated result differs from the single-process run")
	}
	t.scenarios += int64(s.NumScenarios())

	n := float64(s.NumScenarios())
	cs, ws := coordEP.stats(), workerEP.stats()
	t.add("transport.frames_per_record", float64(cs.frames+ws.frames)/n)
	t.add("transport.bytes_per_record", float64(cs.bytes+ws.bytes)/n)
	t.percentiles("transport.send_us", append(cs.sendUS, ws.sendUS...))
	t.percentiles("coord.lease_rtt_us", orZero(ws.leaseRTTUS))
	t.percentiles("coord.ack_rtt_us", orZero(ws.ackRTTUS))
	var wait float64
	for _, v := range ws.leaseRTTUS {
		wait += v
	}
	for _, v := range ws.ackRTTUS {
		wait += v
	}
	t.add("coord.worker_wait_share", wait/float64(session.Microseconds()))
	snap := col.Snapshot()
	t.add("coord.leases_expired", float64(snap.Counter(fleet.MetricCoordLeasesExpired)))
	t.add("coord.records_rejected", float64(snap.Counter(fleet.MetricCoordRecordsRejected)))
	return nil
}

func orZero(v []float64) []float64 {
	if len(v) == 0 {
		return []float64{0}
	}
	return v
}

// clusterPhase reads the cluster.* series. cluster-live takes them from
// its traced fleet run; the other workloads run one cluster-live scenario
// so that every traced run reports the layer.
func (t *tracer) clusterPhase(ctx context.Context) error {
	snap := t.clusterSnap
	if snap == nil {
		s := clusterLiveSuite(t.seed, 0)
		s.SeedsPerCell = 1
		col := telemetry.New()
		if _, _, err := runFleet(ctx, s, fleet.Config{Workers: 1, Telemetry: col}); err != nil {
			return err
		}
		t.scenarios += int64(s.NumScenarios())
		sn := col.Snapshot()
		snap = &sn
		t.notes = append(t.notes, "cluster.*: one cluster-live scenario run inside this trace")
	}
	dur := snap.Histograms[fleet.MetricScenarioDurationNS]
	t.add("cluster.scenario_s", dur.Mean()/1e9)
	probes := probeOps(snap.Counters)
	t.add("cluster.probe_ok", float64(snap.Counter("cluster.probe_ok")))
	t.add("cluster.probe_failures", float64(probes.Failed))
	t.add("cluster.probe_fail_ratio", probes.Ratio())
	// The histogram is named _us but holds nanoseconds.
	t.add("cluster.probe_latency_ms", snap.Histograms[clusterProbeLatency].Mean()/1e6)
	t.add("cluster.replica_restarts", float64(snap.Counter("cluster.replica_restarts")))
	t.add("cluster.restart_failures", float64(snap.Counter("cluster.restart_failures")))
	t.add("cluster.config_failures", float64(snap.Counter("cluster.config_failures")))
	return nil
}

// benchKey is the trusted components' shared HMAC key in the MinBFT and
// USIG loops.
var benchKey = []byte("fleetbench-usig-hmac-key-32bytes")

// minbftPhase drives one closed-loop client against a four-replica MinBFT
// group over loopback TCP: each write is submitted after the previous one
// completes. A failed write counts as infinitely slow.
func (t *tracer) minbftPhase(context.Context) error {
	const replicas, k = 4, 1
	verifier, err := usig.NewHMACVerifier(benchKey)
	if err != nil {
		return err
	}
	registry := replica.NewRegistry()
	var eps []*transport.TCPEndpoint
	var members []string
	var reps []*minbft.Replica
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
		for _, ep := range eps {
			ep.Close()
		}
	}()
	for i := 0; i < replicas; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return err
		}
		eps = append(eps, ep)
		members = append(members, ep.Addr())
	}
	for _, ep := range eps {
		u, err := usig.NewHMAC(ep.Addr(), benchKey)
		if err != nil {
			return err
		}
		r, err := minbft.NewReplica(minbft.Config{
			ID: ep.Addr(), Members: members, K: k, Endpoint: ep, USIG: u,
			Verifier: verifier, Registry: registry, Store: replica.NewKVStore(),
			RequestTimeout: 250 * time.Millisecond, TickInterval: 5 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		reps = append(reps, r)
	}
	cep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	eps = append(eps, cep)
	signer, err := replica.NewSigner(cep.Addr())
	if err != nil {
		return err
	}
	if err := registry.Register(cep.Addr(), signer.PublicKey()); err != nil {
		return err
	}
	client, err := minbft.NewClient(signer, cep, members, (replicas-1-k)/2)
	if err != nil {
		return err
	}
	client.Timeout = 750 * time.Millisecond

	var lat Latencies
	start := time.Now()
	i := 0
	err = repeat(t.slice(shareMinBFT), 50, func() error {
		i++
		t0 := time.Now()
		_, err := client.Submit(replica.Op{Type: replica.OpWrite, Key: "bench", Value: strconv.Itoa(i)})
		lat.Observe(time.Since(t0), err)
		return nil
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	ops := lat.Ops()
	ms := func(p float64) float64 {
		v := lat.Percentile(p)
		if math.IsInf(v, 1) {
			return client.Timeout.Seconds() * 1e3 // a lower bound: the client gave up here
		}
		return v * 1e3
	}
	t.add("minbft.submit_ms.p50", ms(50))
	t.add("minbft.submit_ms.p99", ms(99))
	t.add("minbft.writes_per_s", float64(ops.Attempted-ops.Failed)/elapsed.Seconds())
	t.notes = append(t.notes, fmt.Sprintf("minbft closed loop: %d writes, %d failed, %.3f within 10ms",
		ops.Attempted, ops.Failed, lat.Within(10*time.Millisecond)))
	return nil
}

// usigPhase times UI creation and verification on 256-byte messages with
// the HMAC trusted component the cluster backend uses.
func (t *tracer) usigPhase(context.Context) error {
	u, err := usig.NewHMAC("fleetbench", benchKey)
	if err != nil {
		return err
	}
	verifier, err := usig.NewHMACVerifier(benchKey)
	if err != nil {
		return err
	}
	msg := bytes.Repeat([]byte{0xa5}, 256)
	const batch = 2000
	var ui usig.UI
	err = repeat(t.slice(shareUSIG), 5, func() error {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if ui, err = u.CreateUI(msg); err != nil {
				return err
			}
		}
		t.add("usig.create_ui_us", float64(time.Since(t0).Nanoseconds())/1e3/batch)
		return nil
	})
	if err != nil {
		return err
	}
	return repeat(t.slice(shareUSIG), 5, func() error {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := verifier.VerifyUI(msg, ui); err != nil {
				return err
			}
		}
		t.add("usig.verify_ui_us", float64(time.Since(t0).Nanoseconds())/1e3/batch)
		return nil
	})
}
