package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"tolerance/internal/dist"
	"tolerance/internal/fleet"
	"tolerance/internal/telemetry"
)

// workload is one way a user runs tolerance-fleet. The benchmark seed
// only shapes the suite file the program receives.
type workload struct {
	name string
	// suite builds the suite for one iteration of a run. Deterministic
	// workloads use the same suite in every iteration; cluster-live
	// derives a fresh one per iteration, because its wall-clock outcome
	// depends on the seeded schedule and one schedule is not a typical
	// one.
	suite func(seed int64, iter int) fleet.Suite
	// deterministic workloads must print byte-identical stdout on every
	// iteration of a run.
	deterministic bool
	// coordinated workloads run -serve + one -connect worker and -merge
	// the coordinator's checkpoint; the others run one process.
	coordinated bool
	// cluster marks the live-cluster workload. Its set-up ends at the
	// first finished scenario, seen by polling -metrics-addr, because its
	// first fold waits for a whole batch of slow scenarios; and every
	// step must have sent one probe.
	cluster bool
	// workers is the fleet worker count (the -connect worker's on
	// coord-short); learnedWorkers, when set, the training parallelism.
	workers, learnedWorkers int
	// ops counts the workload's fail_ratio operations from a manifest's
	// counters and the scenarios the suite scheduled.
	ops func(counters map[string]int64, scheduled int64) Ops
	// opName names one operation in reports.
	opName string
}

func scenarioOpsFrom(c map[string]int64, scheduled int64) Ops {
	return scenarioOps(scheduled, c[fleet.MetricScenariosFolded])
}

// workloads are the benchmark's inputs. emu-grid runs one fleet worker:
// on a two-core host a second busy worker contends with the benchmark
// process, the Go runtime and co-tenants, and over six alternating 20 s runs
// on a 2-core Xeon it tripled the run-to-run spread of the median wall time
// (0.079 against 0.025). The traced run's fleet.scaling_1to2 measures the
// second worker instead.
//
// BENCHMARK.json gates emu-grid and solve-sweep only; coord-short and
// cluster-live stay runnable by name, and every traced run measures the
// layers they load. coord-short's time is mostly fsync batches and wake-ups
// passed between three processes, which the shared host's disk and
// scheduler stretch far more than they stretch computation: over five seeds
// of 45 s runs on a 2-vCPU VM its median wall time went from 0.83 s to
// 1.77 s while the reference work of hostref.go slowed by a third, a
// spread of 0.78 as measured and 0.53 scaled. cluster-live's wall time is
// mostly 750 ms probe timeouts whose count varies from schedule to
// schedule, so five seeds spread 0.29 in wall_s and 0.52 in
// scenarios_per_s, beyond any bound the benchmark may set.
var workloads = []workload{
	{
		name: "emu-grid", suite: emuGridSuite, deterministic: true, workers: 1,
		ops: scenarioOpsFrom, opName: "scenarios",
	},
	{
		name: "coord-short", suite: coordShortSuite, deterministic: true, coordinated: true, workers: 1,
		ops:    func(c map[string]int64, _ int64) Ops { return leaseOps(c) },
		opName: "leases",
	},
	{
		name: "solve-sweep", suite: solveSweepSuite, deterministic: true, workers: 1, learnedWorkers: 2,
		ops: scenarioOpsFrom, opName: "scenarios",
	},
	{
		name: "cluster-live", suite: clusterLiveSuite, cluster: true, workers: 1,
		ops:    func(c map[string]int64, _ int64) Ops { return probeOps(c) },
		opName: "probes",
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// suiteSeed maps the benchmark seed (and a per-workload tag) to a positive
// suite master seed.
func suiteSeed(seed int64, tag uint64) int64 {
	return int64(dist.SplitMix64(uint64(seed)*dist.GoldenGamma+tag)>>2) + 1
}

func builtin(name string) fleet.Suite {
	s, err := fleet.Lookup(name)
	if err != nil {
		panic(err) // the built-in suites are compiled in
	}
	return s
}

// emuGridSuite is the Table 7 region of paper-grid (all four strategies
// across pA x DeltaR x N1) at the paper's 20 seeds per cell, 2000-step
// scenarios and M = 25,000 Ẑ samples: 960 scenarios.
func emuGridSuite(seed int64, _ int) fleet.Suite {
	s := builtin("paper-grid")
	s.Name, s.Description = "emu-grid", "fleetbench: Table 7 region, long scenarios"
	s.Seed = suiteSeed(seed, 1)
	s.SeedsPerCell, s.Steps, s.FitSamples = 20, 2000, 25000
	return s
}

// coordShortSuite has emu-grid's cells with 200 seeds each and ten-step
// scenarios, so per-record costs dominate: 9,600 scenarios.
func coordShortSuite(seed int64, _ int) fleet.Suite {
	s := builtin("paper-grid")
	s.Name, s.Description = "coord-short", "fleetbench: Table 7 cells, ten-step scenarios"
	s.Seed = suiteSeed(seed, 2)
	s.SeedsPerCell, s.Steps, s.FitSamples = 200, 10, 25000
	return s
}

// solveSweepSuite grids 72 node models (pA x pU x eta x DeltaR) over three
// N1 values with TOLERANCE and learned:cem, one short scenario per cell:
// 432 scenarios, nearly all of whose cost is strategy construction.
func solveSweepSuite(seed int64, _ int) fleet.Suite {
	s := builtin("paper-grid")
	s.Name, s.Description = "solve-sweep", "fleetbench: distinct node models, TOLERANCE vs learned:cem"
	s.Seed = suiteSeed(seed, 3)
	s.AttackRates = []float64{0.02, 0.05, 0.1, 0.15}
	s.UpdateRates = []float64{0.01, 0.02, 0.05}
	s.Etas = []float64{2, 3}
	s.DeltaRs = []int{10, 15, 25}
	s.N1s = []int{3, 6, 9}
	s.Policies = []fleet.PolicyKind{"TOLERANCE", "learned:cem"}
	s.SeedsPerCell, s.Steps = 1, 20
	return s
}

// clusterLiveSuite runs TOLERANCE with recoveries on (DeltaR 8) against a
// live four-replica MinBFT group, two eight-step scenarios one at a time.
// Crash rates are the paper's Table 8 values rather than cluster-smoke's
// crash-heavy profile, whose evictions add 3 s admin timeouts.
//
// Finding at the commit that added this benchmark: once recoveries start,
// the service is lost and mostly not regained. Here 22 of 48 probes
// failed in one 20 s run (fail_ratio 0.44-0.63 over five seeds), each
// costing the 750 ms probe timeout; cluster-smoke failed 73 of 80 probes.
// The benchmark reports that share as measured.
func clusterLiveSuite(seed int64, iter int) fleet.Suite {
	s := builtin("cluster-smoke")
	s.Name, s.Description = "cluster-live", "fleetbench: TOLERANCE on a live MinBFT group"
	s.Seed = suiteSeed(seed, 4+uint64(iter)<<8)
	s.AttackRates = []float64{0.1}
	s.CrashProfiles = []fleet.CrashProfile{{PC1: 1e-5, PC2: 1e-3}}
	s.DeltaRs = []int{8}
	s.N1s = []int{4}
	s.Policies = []fleet.PolicyKind{"TOLERANCE"}
	s.SeedsPerCell, s.Steps = 2, 8
	return s
}

// sample is one iteration of a workload: its commands from launch to the
// last exit.
type sample struct {
	wall, setup time.Duration
	scenarios   int
	rssKiB      int64
	ops         Ops
	// probesWithin counts cluster-live probes that committed within
	// probeLimit; a failed probe never does.
	probesWithin int64
}

// probeLimit is the latency limit cluster-live's probe writes are held to.
const probeLimit = 100 * time.Millisecond

// scenariosPerS is the rate after set-up: set-up ends when the first
// record is complete, so the remaining scenarios complete in wall - setup.
func (s sample) scenariosPerS() float64 {
	d := (s.wall - s.setup).Seconds()
	if d <= 0 || s.scenarios < 2 {
		return 0
	}
	return float64(s.scenarios-1) / d
}

// e2e runs one workload's iterations through the built CLI.
type e2e struct {
	w    workload
	bin  string
	dir  string
	seed int64
	// ref is the expected stdout of every iteration (deterministic
	// workloads): the first iteration's, or a single-process run's for
	// coord-short.
	ref []byte
}

func (e *e2e) suiteFile(iter int) (string, fleet.Suite, error) {
	if e.w.deterministic {
		iter = 0
	}
	s := e.w.suite(e.seed, iter)
	path := filepath.Join(e.dir, fmt.Sprintf("%s-%d.json", e.w.name, iter))
	if _, err := os.Stat(path); err == nil {
		return path, s, nil
	}
	data, err := fleet.DumpSuite(s)
	if err != nil {
		return "", s, err
	}
	return path, s, os.WriteFile(path, data, 0o644)
}

// prepare does the untimed work before the measured loop: coord-short's
// single-process reference output.
func (e *e2e) prepare(ctx context.Context) error {
	if !e.w.coordinated {
		return nil
	}
	path, _, err := e.suiteFile(0)
	if err != nil {
		return err
	}
	p, err := startProc(ctx, e.dir, e.bin, "-suite-file", path, "-workers", "1", "-format", "json", "-quiet")
	if err != nil {
		return err
	}
	if err := p.wait(); err != nil {
		return err
	}
	e.ref = append([]byte(nil), p.stdout.Bytes()...)
	return nil
}

func (e *e2e) iterate(ctx context.Context, iter int) (sample, error) {
	path, suite, err := e.suiteFile(iter)
	if err != nil {
		return sample{}, err
	}
	if e.w.coordinated {
		return e.iterateCoordinated(ctx, path, suite)
	}
	return e.iterateSingle(ctx, path, suite)
}

func (e *e2e) iterateSingle(ctx context.Context, path string, suite fleet.Suite) (sample, error) {
	manifest := filepath.Join(e.dir, "manifest.json")
	_ = os.Remove(manifest)
	args := []string{"-suite-file", path, "-format", "json", "-manifest", manifest, "-workers", strconv.Itoa(e.w.workers)}
	if e.w.learnedWorkers > 0 {
		args = append(args, "-learned-workers", strconv.Itoa(e.w.learnedWorkers))
	}
	if e.w.cluster {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	p, err := startProc(ctx, e.dir, e.bin, args...)
	if err != nil {
		return sample{}, err
	}
	var firstDone time.Time
	var watchErr error
	watchCtx, stopWatch := context.WithCancel(ctx)
	watched := make(chan struct{})
	if e.w.cluster {
		go func() {
			defer close(watched)
			firstDone, watchErr = p.watchFirstScenario(watchCtx)
		}()
	} else {
		close(watched)
	}
	err = p.wait()
	stopWatch()
	<-watched
	if err != nil {
		return sample{}, err
	}
	setup, ok := p.setup()
	if e.w.cluster {
		if watchErr != nil {
			return sample{}, fmt.Errorf("%s: %w", e.w.name, watchErr)
		}
		setup, ok = firstDone.Sub(p.start), true
	}
	if !ok {
		return sample{}, fmt.Errorf("%s: no progress meter on stderr", e.w.name)
	}
	if err := checkResult(p.stdout.Bytes(), suite); err != nil {
		return sample{}, err
	}
	if e.w.deterministic {
		if e.ref == nil {
			e.ref = append([]byte(nil), p.stdout.Bytes()...)
		} else if !bytes.Equal(p.stdout.Bytes(), e.ref) {
			return sample{}, fmt.Errorf("%s: stdout differs from the run's first iteration", e.w.name)
		}
	}
	snap, err := readManifest(manifest)
	if err != nil {
		return sample{}, err
	}
	n := int64(suite.NumScenarios())
	if err := checkFolded(snap, n); err != nil {
		return sample{}, err
	}
	out := sample{
		wall: p.end.Sub(p.start), setup: setup, scenarios: int(n),
		rssKiB: p.peakRSSKiB(), ops: e.w.ops(snap.Counters, n),
	}
	if e.w.cluster {
		if err := checkProbes(snap, suite); err != nil {
			return sample{}, err
		}
		out.probesWithin = probesWithin(snap.Histograms[clusterProbeLatency],
			snap.Counter("cluster.probe_ok"), probeLimit)
	}
	return out, nil
}

func (e *e2e) iterateCoordinated(ctx context.Context, path string, suite fleet.Suite) (sample, error) {
	ck := filepath.Join(e.dir, "coord.jsonl")
	for _, f := range []string{ck, ck + ".manifest.json"} {
		_ = os.Remove(f)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // kills whichever process is still running on an error path
	coord, err := startProc(ctx, e.dir, e.bin,
		"-serve", "127.0.0.1:0", "-suite-file", path, "-checkpoint", ck, "-format", "json")
	if err != nil {
		return sample{}, err
	}
	addrCtx, addrCancel := context.WithTimeout(ctx, 30*time.Second)
	addr, err := coord.listenAddr(addrCtx)
	addrCancel()
	if err != nil {
		cancel()
		_ = coord.wait()
		return sample{}, err
	}
	worker, err := startProc(ctx, e.dir, e.bin, "-connect", addr, "-workers", strconv.Itoa(e.w.workers))
	if err != nil {
		cancel()
		_ = coord.wait()
		return sample{}, err
	}
	werr := worker.wait()
	if werr != nil {
		cancel() // a coordinator without its worker would wait for one forever
	}
	cerr := coord.wait()
	if werr != nil || cerr != nil {
		return sample{}, fmt.Errorf("coordinator: %v; worker: %v", cerr, werr)
	}
	merge, err := startProc(ctx, e.dir, e.bin, "-merge", "-format", "json", ck)
	if err != nil {
		return sample{}, err
	}
	if err := merge.wait(); err != nil {
		return sample{}, err
	}
	setup, ok := coord.setup()
	if !ok {
		return sample{}, fmt.Errorf("%s: no progress meter on the coordinator's stderr", e.w.name)
	}
	if !bytes.Equal(coord.stdout.Bytes(), e.ref) {
		return sample{}, fmt.Errorf("%s: coordinator stdout differs from the single-process run", e.w.name)
	}
	if !bytes.Equal(merge.stdout.Bytes(), e.ref) {
		return sample{}, fmt.Errorf("%s: -merge stdout differs from the single-process run", e.w.name)
	}
	if err := checkResult(coord.stdout.Bytes(), suite); err != nil {
		return sample{}, err
	}
	snap, err := readManifest(ck + ".manifest.json")
	if err != nil {
		return sample{}, err
	}
	n := int64(suite.NumScenarios())
	if err := checkFolded(snap, n); err != nil {
		return sample{}, err
	}
	return sample{
		wall: merge.end.Sub(coord.start), setup: setup, scenarios: int(n),
		rssKiB: coord.peakRSSKiB() + worker.peakRSSKiB() + merge.peakRSSKiB(),
		ops:    e.w.ops(snap.Counters, n),
	}, nil
}

// checkResult verifies a -format json result: the suite's scenario count,
// every cell of the grid, and each cell's runs equal to its seeds.
func checkResult(stdout []byte, suite fleet.Suite) error {
	var res fleet.Result
	if err := json.Unmarshal(stdout, &res); err != nil {
		return fmt.Errorf("parse result: %w", err)
	}
	if res.Scenarios != suite.NumScenarios() {
		return fmt.Errorf("result has %d scenarios, suite has %d", res.Scenarios, suite.NumScenarios())
	}
	if len(res.Cells) != suite.NumCells() {
		return fmt.Errorf("result has %d cells, suite has %d", len(res.Cells), suite.NumCells())
	}
	for _, c := range res.Cells {
		if c.Runs != int64(suite.SeedsPerCell) {
			return fmt.Errorf("cell %d has %d runs, want %d", c.Cell.Index, c.Runs, suite.SeedsPerCell)
		}
	}
	return nil
}

func checkFolded(snap telemetry.Snapshot, want int64) error {
	if got := snap.Counter(fleet.MetricScenariosFolded); got != want {
		return fmt.Errorf("%s = %d, suite has %d scenarios", fleet.MetricScenariosFolded, got, want)
	}
	return nil
}

// checkProbes verifies the cluster backend probed once per step of every
// scenario.
func checkProbes(snap telemetry.Snapshot, suite fleet.Suite) error {
	ops := probeOps(snap.Counters)
	if want := int64(suite.NumScenarios() * suite.Steps); ops.Attempted != want {
		return fmt.Errorf("cluster probes = %d, want one per step (%d)", ops.Attempted, want)
	}
	return nil
}

type manifestDoc struct {
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

func readManifest(path string) (telemetry.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	var m manifestDoc
	if err := json.Unmarshal(data, &m); err != nil {
		return telemetry.Snapshot{}, fmt.Errorf("parse manifest %s: %w", path, err)
	}
	return m.Telemetry, nil
}

// clusterProbeLatency is the cluster backend's probe-latency histogram.
// Its values are nanoseconds although the name says microseconds.
const clusterProbeLatency = "cluster.probe_latency_us"

// e2eResult folds a run's samples into the end-to-end metrics.
type e2eResult struct {
	samples []sample
}

// metrics summarizes the samples. wall_s, setup_s and scenarios_per_s are
// scaled to the reference host by the reference times refs (see
// hostref.go); "<name>.measured" keeps each as timed, and host.ref_ms
// summarizes refs.
func (r e2eResult) metrics(refs []time.Duration) map[string]Summary {
	var wall, setup, rate, rss, fail, ref []float64
	for _, s := range r.samples {
		wall = append(wall, s.wall.Seconds())
		setup = append(setup, s.setup.Seconds())
		rate = append(rate, s.scenariosPerS())
		rss = append(rss, float64(s.rssKiB)/1024)
		fail = append(fail, s.ops.Ratio())
	}
	for _, d := range refs {
		ref = append(ref, float64(d.Nanoseconds())/1e6)
	}
	k := hostScale(refs)
	m := map[string]Summary{
		"wall_s.measured":          Summarize(wall),
		"setup_s.measured":         Summarize(setup),
		"scenarios_per_s.measured": Summarize(rate),
		"peak_rss_mb":              Summarize(rss),
		"fail_ratio":               Summarize(fail),
		"host.ref_ms":              Summarize(ref),
	}
	m["wall_s"] = m["wall_s.measured"].Scale(k)
	m["setup_s"] = m["setup_s.measured"].Scale(k)
	m["scenarios_per_s"] = m["scenarios_per_s.measured"].Scale(1 / k)
	return m
}

func (r e2eResult) ops() Ops {
	var o Ops
	for _, s := range r.samples {
		o.Add(s.ops)
	}
	return o
}

func (r e2eResult) scenarios() (n int64) {
	for _, s := range r.samples {
		n += int64(s.scenarios)
	}
	return n
}

var e2eUnits = map[string]string{
	"wall_s": "s", "setup_s": "s", "scenarios_per_s": "1/s", "peak_rss_mb": "MiB", "fail_ratio": "share",
	"wall_s.measured": "s", "setup_s.measured": "s", "scenarios_per_s.measured": "1/s", "host.ref_ms": "ms",
}

// e2eOrder is the print order.
var e2eOrder = []string{
	"wall_s", "setup_s", "scenarios_per_s", "peak_rss_mb", "fail_ratio",
	"wall_s.measured", "setup_s.measured", "scenarios_per_s.measured", "host.ref_ms",
}

// e2eGated are the end-to-end metrics of the result line (BENCHMARK.json's
// end_to_end list). fail_ratio is 0 on three of the four workloads, so it
// cannot carry a relative bound; it is reported, and the result line's
// attempted/failed carry scenario failures.
var e2eGated = []string{"wall_s", "setup_s", "scenarios_per_s", "peak_rss_mb"}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
