// Command fleetbench is the repository's benchmark. It runs one workload
// of the built tolerance-fleet CLI the way a user runs it, checks the
// output, and prints the end-to-end metrics (-trace 0), or times calls
// into each layer's public functions from its own code and prints the
// per-layer metrics (-trace 1). Build and run it through run.sh from the
// repository root:
//
//	bash fleetbench/run.sh --workload emu-grid --seed 1 --seconds 20 --trace 0
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it are a readable report
// and a JSON report stamped with the host and toolchain.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// minIterations is the fewest workload iterations a run measures,
	// so every median has at least three samples.
	minIterations = 3
	// maxRunTime bounds a run well inside the 180 s a run may take.
	maxRunTime = 170 * time.Second
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

// stamp identifies the code and host a result was measured on.
type stamp struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Samples    int    `json:"samples"`
}

func newStamp() stamp {
	s := stamp{Commit: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	return s
}

// metric is one printed metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the stamped JSON line printed before the result.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    int                `json:"trace"`
	Stamp    stamp              `json:"stamp"`
	Metrics  map[string]Summary `json:"metrics"`
	Units    map[string]string  `json:"units"`
	Notes    []string           `json:"notes,omitempty"`
	Error    string             `json:"error,omitempty"`
}

func run() error {
	name := flag.String("workload", "", "workload to run: emu-grid | coord-short | solve-sweep | cluster-live")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same suite files")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics through the CLI, 1 = per-layer metrics")
	bin := flag.String("bin", "", "path of the built tolerance-fleet binary")
	work := flag.String("work", "", "scratch directory for suite files, checkpoints and manifests")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *bin == "" || *work == "" {
		return fmt.Errorf("-bin and -work are required (run through fleetbench/run.sh)")
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d-%d", w.name, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), maxRunTime)
	defer cancel()
	budget := time.Duration(*seconds) * time.Second

	rep := report{Workload: w.name, Seed: *seed, Trace: *trace, Stamp: newStamp()}
	res := result{Metrics: map[string]metric{}}
	var runErr error
	if *trace == 0 {
		runErr = runEndToEnd(ctx, w, *bin, dir, *seed, budget, &rep, &res)
	} else {
		runErr = runTraced(ctx, w, dir, *seed, budget, &rep, &res)
	}
	if runErr != nil {
		rep.Error = runErr.Error()
		res.Correct = false
	}
	printReport(rep)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if runErr != nil {
		return runErr
	}
	return nil
}

// runEndToEnd runs one untimed warm-up iteration, then measures iterations
// of the workload until the budget is spent (at least minIterations) and
// reports each metric's median. The warm-up is checked like the others; it
// keeps the first read of the binary and the suite file out of the
// samples.
func runEndToEnd(ctx context.Context, w workload, bin, dir string, seed int64, budget time.Duration, rep *report, res *result) error {
	e := &e2e{w: w, bin: bin, dir: dir, seed: seed}
	if err := e.prepare(ctx); err != nil {
		return err
	}
	if _, err := e.iterate(ctx, -1); err != nil {
		return fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	var out e2eResult
	var iterTimes []float64
	refs := []time.Duration{hostRef()}
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minIterations {
			sorted := append([]float64(nil), iterTimes...)
			sort.Float64s(sorted)
			next := time.Duration(Median(sorted) * float64(time.Second))
			if time.Since(start)+next > budget {
				break
			}
		}
		t0 := time.Now()
		s, err := e.iterate(ctx, i)
		if err != nil {
			return fmt.Errorf("%s iteration %d: %w", w.name, i, err)
		}
		iterTimes = append(iterTimes, time.Since(t0).Seconds())
		out.samples = append(out.samples, s)
		refs = append(refs, hostRef())
	}

	rep.Stamp.Samples = len(out.samples)
	rep.Metrics = out.metrics(refs)
	rep.Units = e2eUnits
	rep.Notes = append(rep.Notes, fmt.Sprintf("wall_s, setup_s and scenarios_per_s are scaled to the reference host (factor %s); the .measured lines are as timed",
		formatFloat(hostScale(refs))))
	ops := out.ops()
	rep.Notes = append(rep.Notes, fmt.Sprintf("fail_ratio counts %s: %d of %d failed or retried",
		w.opName, ops.Failed, ops.Attempted))
	if w.cluster {
		var within int64
		for _, s := range out.samples {
			within += s.probesWithin
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("probes that committed within %v: %d of %d (a failed probe misses every limit)",
			probeLimit, within, ops.Attempted))
	}
	for _, name := range e2eGated {
		res.Metrics[name] = metric{Value: rep.Metrics[name].Median, Unit: e2eUnits[name]}
	}
	// Every scenario was folded and checked, or the iteration returned an
	// error above, so none failed.
	res.Correct = true
	res.Attempted = out.scenarios()
	return nil
}

func printReport(rep report) {
	fmt.Printf("fleetbench %s seed=%d trace=%d commit=%s nproc=%d GOMAXPROCS=%d %s samples=%d\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Stamp.Commit, rep.Stamp.NumCPU, rep.Stamp.GOMAXPROCS,
		rep.Stamp.GoVersion, rep.Stamp.Samples)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	if rep.Trace == 0 {
		names = e2eOrder
	} else {
		sort.Strings(names)
	}
	for _, name := range names {
		s, ok := rep.Metrics[name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-28s %12s %-6s median  [q1 %s, q3 %s, n=%d",
			name, formatFloat(s.Median), rep.Units[name], formatFloat(s.Q1), formatFloat(s.Q3), s.N)
		if s.Tail != "" {
			line += fmt.Sprintf(", %s %s", s.Tail, formatFloat(s.TailValue))
		}
		fmt.Println(line + "]")
	}
	for _, note := range rep.Notes {
		fmt.Println("  note:", note)
	}
	if rep.Error != "" {
		fmt.Println("  error:", rep.Error)
	}
	data, err := json.Marshal(map[string]report{"report": rep})
	if err == nil {
		fmt.Println(string(data))
	}
}
