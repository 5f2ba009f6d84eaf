package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tolerance/internal/fleet"
	"tolerance/internal/telemetry"
)

// meterLine matches the first progress-meter draw tolerance-fleet writes
// to stderr. The meter draws on its first call, which the engine and the
// coordinator make right after folding the first scenario record, so the
// time it appears marks the end of set-up.
var meterLine = regexp.MustCompile(`\r\d+/\d+ scenarios \(`)

// listenLine matches the coordinator's bound address.
var listenLine = regexp.MustCompile(`coordinator: listening on (\S+)\n`)

// metricsLine matches the address of the -metrics-addr endpoint.
var metricsLine = regexp.MustCompile(`telemetry: serving http://(\S+)/metrics\n`)

// proc is one launched tolerance-fleet process.
type proc struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr *stderrWatch
	start  time.Time
	end    time.Time
	// listen and metrics receive the coordinator's address and the
	// telemetry endpoint's address once stderr names them.
	listen, metrics <-chan string
	// hwmKiB is the last VmHWM read while the process ran; stopHWM
	// stops the sampler and hwmDone closes when it has stopped.
	hwmKiB           atomic.Int64
	stopHWM, hwmDone chan struct{}
}

// hwmInterval is how often a running process's VmHWM is read.
const hwmInterval = 10 * time.Millisecond

// stderrWatch buffers a process's stderr as the bytes arrive, timestamps
// the first meter draw and hands over the addresses the process reports.
type stderrWatch struct {
	mu          sync.Mutex
	buf         bytes.Buffer
	firstRecord time.Time
	// addrs receives the first match of each address line.
	addrs map[*regexp.Regexp]chan string
}

func (w *stderrWatch) Write(p []byte) (int, error) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.firstRecord.IsZero() && meterLine.Match(w.buf.Bytes()) {
		w.firstRecord = now
	}
	for re, ch := range w.addrs {
		if m := re.FindSubmatch(w.buf.Bytes()); m != nil {
			ch <- string(m[1])
			delete(w.addrs, re)
		}
	}
	return len(p), nil
}

func (w *stderrWatch) firstRecordAt() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.firstRecord
}

func (w *stderrWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startProc launches bin with args in dir. ctx bounds the process's life:
// cancelling it kills the process.
func startProc(ctx context.Context, dir, bin string, args ...string) (*proc, error) {
	p := &proc{stderr: &stderrWatch{addrs: map[*regexp.Regexp]chan string{
		listenLine:  make(chan string, 1),
		metricsLine: make(chan string, 1),
	}}}
	p.listen, p.metrics = p.stderr.addrs[listenLine], p.stderr.addrs[metricsLine]
	p.cmd = exec.CommandContext(ctx, bin, args...)
	p.cmd.Dir = dir
	p.cmd.Stdout = &p.stdout
	p.cmd.Stderr = p.stderr
	p.start = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p.stopHWM, p.hwmDone = make(chan struct{}), make(chan struct{})
	go p.sampleHWM(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	return p, nil
}

// wait waits for the process and records its exit time.
func (p *proc) wait() error {
	err := p.cmd.Wait()
	p.end = time.Now()
	close(p.stopHWM)
	<-p.hwmDone
	if err != nil {
		return fmt.Errorf("%v: %w\n%s", p.cmd.Args, err, tail(p.stderr.String(), 2000))
	}
	return nil
}

// listenAddr waits for the coordinator's bound address.
func (p *proc) listenAddr(ctx context.Context) (string, error) {
	select {
	case addr := <-p.listen:
		return addr, nil
	case <-ctx.Done():
		return "", fmt.Errorf("coordinator did not report its address: %w", ctx.Err())
	}
}

// watchFirstScenario polls the process's -metrics-addr endpoint until one
// scenario has finished executing and returns the time it saw it. It is
// the set-up mark for runs whose first fold waits for a whole batch of
// slow scenarios (cluster-live folds both of its scenarios at once).
// Polling every 10 ms bounds the mark's error.
func (p *proc) watchFirstScenario(ctx context.Context) (time.Time, error) {
	var addr string
	select {
	case addr = <-p.metrics:
	case <-ctx.Done():
		return time.Time{}, fmt.Errorf("no telemetry address on stderr: %w", ctx.Err())
	}
	client := &http.Client{Timeout: time.Second}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if done, err := scenarioFinished(ctx, client, addr); err == nil && done {
			return time.Now(), nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return time.Time{}, fmt.Errorf("no scenario finished before exit: %w", ctx.Err())
		}
	}
}

func scenarioFinished(ctx context.Context, client *http.Client, addr string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return false, err
	}
	return snap.Histograms[fleet.MetricScenarioDurationNS].Count > 0, nil
}

// setup is the time from launch to the first folded record; ok is false
// when the meter never drew.
func (p *proc) setup() (time.Duration, bool) {
	t := p.stderr.firstRecordAt()
	if t.IsZero() {
		return 0, false
	}
	return t.Sub(p.start), true
}

// peakRSSKiB is the process's peak resident set size: the last VmHWM
// read while it ran, at most hwmInterval before it exited. The rusage
// figure (ru_maxrss) cannot serve: Linux counts in it the peak RSS of the
// memory a child ran in before exec, and os/exec starts children with
// vfork, in this process's memory, so ru_maxrss is never below this
// process's own peak.
func (p *proc) peakRSSKiB() int64 { return p.hwmKiB.Load() }

// sampleHWM reads VmHWM from the process's status file every hwmInterval
// until stopHWM closes. VmHWM only grows, so the last read is the peak so
// far; the status file of an exited process has no VmHWM line.
func (p *proc) sampleHWM(status string) {
	defer close(p.hwmDone)
	tick := time.NewTicker(hwmInterval)
	defer tick.Stop()
	for {
		if kib, ok := readHWM(status); ok && kib > p.hwmKiB.Load() {
			p.hwmKiB.Store(kib)
		}
		select {
		case <-tick.C:
		case <-p.stopHWM:
			return
		}
	}
}

// readHWM parses the VmHWM line of a /proc/<pid>/status file.
func readHWM(status string) (int64, bool) {
	data, err := os.ReadFile(status)
	if err != nil {
		return 0, false
	}
	m := hwmLine.FindSubmatch(data)
	if m == nil {
		return 0, false
	}
	kib, err := strconv.ParseInt(string(m[1]), 10, 64)
	return kib, err == nil
}

var hwmLine = regexp.MustCompile(`(?m)^VmHWM:\s+(\d+) kB$`)

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}
