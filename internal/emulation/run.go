package emulation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"tolerance/internal/attacker"
	"tolerance/internal/baselines"
	"tolerance/internal/dist"
	"tolerance/internal/nodemodel"
)

// ErrBadScenario is returned for invalid scenario configurations.
var ErrBadScenario = errors.New("emulation: bad scenario")

// Scenario configures one evaluation run (§VIII-A).
type Scenario struct {
	// N1 is the initial number of nodes.
	N1 int
	// SMax caps the replication factor (Table 3 has 13 physical nodes).
	SMax int
	// K is the number of parallel recoveries allowed (Prop. 1; Table 8: 1).
	K int
	// F is the tolerance threshold; 0 selects the paper's evaluation rule
	// f = min((N1-1)/2, 2) (Table 8).
	F int
	// DeltaR is the BTR bound (recovery.InfiniteDeltaR = none).
	DeltaR int
	// Steps is the number of 60-second time steps to simulate.
	Steps int
	// Seed drives all randomness of the run.
	Seed int64
	// Params is the node model (Table 8 §X values by default).
	Params nodemodel.Params
	// Policy is the two-level control strategy under evaluation.
	Policy baselines.Policy
	// FitSamples is M for the Ẑ estimation (paper: 25,000).
	FitSamples int
	// FitSeed seeds the dedicated Ẑ-fitting rng stream; zero derives it
	// from Seed via FitStreamSeed. Fleet engines set one fit seed per
	// suite so every scenario of a grid shares the same offline fit.
	FitSeed int64
	// Fits supplies a pre-fitted observation-model set (the offline
	// training artifact, typically from a fleet-level fit cache). Nil fits
	// one inside Run from (FitSamples, FitSeed); a run with a supplied set
	// built from the same samples and seed is byte-identical to one that
	// fits inline.
	Fits *FitSet
	// Workload is the background client population.
	Workload BackgroundWorkload
}

// ApplyDefaults validates s and fills its zero fields with the paper's
// evaluation defaults (Table 8). Invalid scenarios wrap ErrBadScenario.
func (s *Scenario) ApplyDefaults() error {
	if s.Policy == nil {
		return fmt.Errorf("%w: nil policy", ErrBadScenario)
	}
	if s.N1 < 1 {
		return fmt.Errorf("%w: N1 = %d", ErrBadScenario, s.N1)
	}
	if s.SMax == 0 {
		s.SMax = 13
	}
	if s.N1 > s.SMax {
		return fmt.Errorf("%w: N1 = %d > smax = %d", ErrBadScenario, s.N1, s.SMax)
	}
	if s.K == 0 {
		s.K = 1
	}
	if s.F == 0 {
		s.F = DefaultThreshold(s.N1)
	}
	if s.DeltaR < 0 {
		return fmt.Errorf("%w: deltaR = %d", ErrBadScenario, s.DeltaR)
	}
	if s.Steps == 0 {
		s.Steps = 1000
	}
	if s.Params.ZHealthy == nil {
		p := nodemodel.DefaultParams()
		p.PA = 0.1 // §X evaluation value
		s.Params = p
	}
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if s.FitSamples == 0 {
		s.FitSamples = 25000
	}
	if s.Workload.Lambda == 0 {
		s.Workload = DefaultBackgroundWorkload()
	}
	return nil
}

// FitSet returns the scenario's offline observation-model fit: Fits when
// supplied, else a set fitted from (FitSamples, FitSeed), with a zero
// FitSeed derived from Seed via FitStreamSeed.
func (s *Scenario) FitSet() (*FitSet, error) {
	if s.Fits != nil {
		return s.Fits, nil
	}
	fitSeed := s.FitSeed
	if fitSeed == 0 {
		fitSeed = FitStreamSeed(s.Seed)
	}
	return NewFitSet(s.FitSamples, fitSeed)
}

// DefaultThreshold is the paper's evaluation rule for the tolerance
// threshold: f = min((N1-1)/2, 2), at least 1 (Table 8). Scenario
// defaulting and the fleet grid expansion both use it.
func DefaultThreshold(n1 int) int {
	f := (n1 - 1) / 2
	if f > 2 {
		f = 2
	}
	if f < 1 {
		f = 1
	}
	return f
}

// Metrics aggregates one run's evaluation quantities (§III-C, Table 7).
type Metrics struct {
	// Availability is T(A): the fraction of steps where at most f nodes
	// were compromised or crashed (the paper's §III-C metric).
	Availability float64
	// QuorumAvailability additionally requires N_t >= 2f+1+k alive nodes
	// (the full Prop. 1 condition for correct service): it exposes
	// replication shortfalls that T(A) alone does not.
	QuorumAvailability float64
	// TimeToRecovery is T(R) in steps, penalty 10^3 for unrecovered
	// intrusions.
	TimeToRecovery float64
	// RecoveryFrequency is F(R): recoveries per node-step.
	RecoveryFrequency float64
	// AvgNodes is the mean replication factor over the run.
	AvgNodes float64
	// AvgCost is the eq. (5) control cost per node-step: eta per
	// compromised waiting node plus 1 per recovery.
	AvgCost float64
	// Intrusions counts completed compromises.
	Intrusions int
	// Recoveries counts controller recoveries.
	Recoveries int
	// Evictions and Additions count replication-factor changes.
	Evictions, Additions int
	// ServiceLatencyMS is the mean client-request latency in milliseconds,
	// measured only by backends that serve a real workload (the live-cluster
	// backend). The analytic emulation leaves it zero; omitempty keeps
	// emulation records and checkpoints byte-identical to releases that
	// predate the field.
	ServiceLatencyMS float64 `json:"ServiceLatencyMS,omitempty"`
}

// simNode is one virtual node of the testbed: the environment-side state
// (container, compromise progress, attack campaign, pending alert boost).
// The controller-side state of the node — belief, last action, BTR calendar
// offset and window position, Ẑ table offset — lives in the runner's
// Controller lanes at the same index. The intrusion tracker is embedded by
// value (underAttack marks it live), so starting a campaign never allocates.
type simNode struct {
	id          int
	container   Container
	state       nodemodel.State
	intrusion   attacker.Intrusion
	underAttack bool
	behaviour   attacker.Behaviour
	boost       int // pending alert boost from the ongoing intrusion
}

// runner holds one scenario run's environment — the rng streams, the node
// set and the background workload — and steps it through the Controller,
// which holds the control state and the metric tally. Scratch buffers are
// reused across steps so the steady-state step loop allocates nothing
// (guarded by TestStepZeroAllocations). A runner is additionally reusable
// across scenarios through reset: the node structs, rng streams, controller
// lanes and scratch buffers all carry over, so a worker that executes many
// scenarios (the fleet engine's worker-resident mode) reaches a steady
// state where a whole scenario run allocates nothing (guarded by
// TestRunIntoSteadyStateZeroAllocations).
type runner struct {
	// src is the node/environment stream (seeded by Scenario.Seed). The
	// per-node draws of the step (alerts and the Bernoulli coin flips) call
	// it directly; rng wraps the same source for the colder draws (catalog
	// picks, intrusion progress, the policy's SystemContext), so both read
	// one state and the draw order is unchanged.
	src  *dist.SplitMixSource
	rng  *rand.Rand
	wrng *rand.Rand // background-workload stream (arrivals + departures)

	ctl Controller

	nodes  []*simNode
	pool   []*simNode // recycled node structs (evictions + resets)
	nextID int

	sessions int

	// Fixed-parameter workload samplers: draw-identical to the
	// dist.SamplePoisson/SampleBinomial calls they replace, with the
	// per-step transcendentals hoisted into reset.
	poisson dist.PoissonSampler
	binom   dist.BinomialSampler
}

// reset validates the scenario, resolves the offline fit, recycles the
// previous run's node structs, reseeds the rng streams in place, and places
// the initial nodes. After reset the runner is in exactly the state a
// freshly constructed runner for the scenario would be in.
func (r *runner) reset(s Scenario) error {
	if err := s.ApplyDefaults(); err != nil {
		return err
	}
	fits, err := s.FitSet()
	if err != nil {
		return err
	}
	r.ctl.reset(s, fits)
	if r.rng == nil {
		r.src = dist.NewSplitMixSource(s.Seed)
		r.rng = rand.New(r.src)
		r.wrng = rand.New(dist.NewSplitMixSource(workloadStreamSeed(s.Seed)))
	} else {
		r.rng.Seed(s.Seed)
		r.wrng.Seed(workloadStreamSeed(s.Seed))
	}
	r.pool = append(r.pool, r.nodes...)
	r.nodes = r.nodes[:0]
	r.sessions = 0
	r.poisson.Reset(s.Workload.Lambda)
	r.binom.Reset(1 / s.Workload.MeanServiceSteps)
	for i := 0; i < s.N1; i++ {
		r.spawn(i, r.ctl.InitialPhase(i), 0)
	}
	r.nextID = s.N1
	return nil
}

// newRunner validates the scenario, resolves the offline fit, and places
// the initial nodes.
func newRunner(s Scenario) (*runner, error) {
	r := &runner{}
	if err := r.reset(s); err != nil {
		return nil, err
	}
	return r, nil
}

// spawn appends a node running a uniformly drawn catalog image — recycling
// a previously evicted node struct when one is available — and adds it to
// the controller with BTR offset phase at step t (0 at reset).
func (r *runner) spawn(id, phase, t int) {
	var n *simNode
	if k := len(r.pool); k > 0 {
		n, r.pool = r.pool[k-1], r.pool[:k-1]
	} else {
		n = &simNode{}
	}
	fits := r.ctl.fits
	ci := r.rng.Intn(fits.Len())
	*n = simNode{
		id:        id,
		container: fits.Container(ci),
		state:     nodemodel.Healthy,
	}
	r.nodes = append(r.nodes, n)
	r.ctl.AddNode(ci, phase, t)
}

// Runner executes scenarios with state that is reused from one run to the
// next: the node structs, rng streams, metric accumulators and scratch
// buffers of a finished scenario become the next scenario's starting
// capital. A Runner is for a single goroutine; fleet workers hold one each
// and execute their whole batch stream through it, which removes the
// per-scenario construction cost (≈ the runner, its node set and both rng
// streams) from the grid hot path. Results are bit-identical to Run: reset
// reproduces exactly the state a fresh runner would start with.
type Runner struct {
	run   runner
	onRun func(steps int)
}

// NewRunner returns an empty reusable runner; the first RunInto sizes it.
func NewRunner() *Runner { return &Runner{} }

// OnRun installs a completion observer: after every successful RunInto the
// runner calls fn with the number of simulated steps (post-default, so the
// real count). The observer is for telemetry only — it runs after the
// scenario's randomness is fully consumed, receives no simulation state,
// and must not retain references; metrics are unchanged whether one is
// installed or not. The call itself is allocation-free, preserving the
// warm-runner zero-alloc guarantee.
func (r *Runner) OnRun(fn func(steps int)) { r.onRun = fn }

// RunInto executes the scenario on the reusable runner and returns the
// metrics by value (no per-run allocation).
func (r *Runner) RunInto(s Scenario) (Metrics, error) { return RunInto(r, s) }

// RunInto executes a scenario on a reusable runner: the runner's node pool,
// rng streams and scratch state are recycled, so a warm runner executes a
// whole scenario without allocating (guarded by
// TestRunIntoSteadyStateZeroAllocations). Output is bit-identical to Run.
func RunInto(r *Runner, s Scenario) (Metrics, error) {
	run := &r.run
	if err := run.reset(s); err != nil {
		return Metrics{}, err
	}
	steps := run.ctl.s.Steps
	for t := 1; t <= steps; t++ {
		run.step(t)
	}
	if r.onRun != nil {
		r.onRun(steps)
	}
	return run.ctl.Finish(), nil
}

// Run executes a scenario and returns its metrics. It is the allocate-fresh
// wrapper around RunInto; callers executing many scenarios should hold a
// Runner and use RunInto instead.
func Run(s Scenario) (*Metrics, error) {
	m, err := RunInto(NewRunner(), s)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// step advances the simulation by one 60-second time step: the environment
// side here, the control side in r.ctl (see Controller for the order).
func (r *runner) step(t int) {
	c := &r.ctl
	s := &c.s
	src := r.src
	fits := c.fits

	// Background client population (Poisson arrivals, exponential service
	// approximated by geometric departures — a Binomial(sessions, 1/mu)
	// thinning per step); the load adds baseline alert noise. Both draws
	// come from the dedicated workload stream, through the fixed-parameter
	// samplers (draw-identical to the dist.Sample* calls they hoist).
	r.sessions += r.poisson.Sample(r.wrng)
	r.sessions -= r.binom.Sample(r.wrng, r.sessions)
	load := float64(r.sessions) / (s.Workload.Lambda * s.Workload.MeanServiceSteps)

	// 1. Observations — drawn strictly in node order, the rng draw order is
	// part of the determinism contract — then the belief updates.
	pFalse := 0.1 * load // background-traffic false-alert probability
	for i, nd := range r.nodes {
		alerts := nd.container.Profile.NoIntrusion
		if nd.state == nodemodel.Compromised {
			alerts = nd.container.Profile.Intrusion
		}
		obs := alerts.Index(src.Float64()) // = Profile.Sample, draw for draw
		obs += nd.boost
		nd.boost = 0
		if src.Bernoulli(pFalse) {
			obs++ // background-traffic false alert
		}
		c.Observe(i, obs)
	}
	c.UpdateBeliefs()

	// 2-3. Action selection and recoveries: the container is replaced with
	// a random image from Table 4 (§VIII-A).
	for _, ci := range c.SelectRecoveries(t) {
		i := int(ci)
		nd := r.nodes[i]
		k := r.rng.Intn(fits.Len())
		c.Recover(i, t, k)
		nd.container = fits.Container(k)
		nd.state = nodemodel.Healthy
		nd.underAttack = false
	}

	// 4. System controller: evict crashed nodes (they failed to report a
	// belief, §V-B), then decide whether to add one.
	alive := r.nodes[:0]
	for i, nd := range r.nodes {
		if nd.state == nodemodel.Crashed {
			r.pool = append(r.pool, nd)
			continue
		}
		if j := len(alive); j != i {
			c.MoveNode(j, i)
		}
		alive = append(alive, nd)
	}
	r.nodes = alive
	c.Evict(len(alive))
	if phase, ok := c.Grow(r.rng); ok {
		r.spawn(r.nextID, phase, t)
		r.nextID++
	}

	// 5. Metrics.
	c.Tally()

	// 6. Environment transition: intrusions, crashes, updates.
	for i, nd := range r.nodes {
		switch nd.state {
		case nodemodel.Healthy:
			if src.Bernoulli(s.Params.PC1) {
				nd.state = nodemodel.Crashed
				continue
			}
			if !nd.underAttack && src.Bernoulli(s.Params.PA) {
				if err := nd.intrusion.Begin(nd.container.ID); err == nil {
					nd.underAttack = true
				}
			}
			if nd.underAttack {
				nd.boost += nd.intrusion.Advance(r.rng)
				if nd.intrusion.Done() {
					nd.state = nodemodel.Compromised
					nd.behaviour = nd.intrusion.Behaviour
					c.Compromised(i, t)
				}
			}
		case nodemodel.Compromised:
			if src.Bernoulli(s.Params.PC2) {
				nd.state = nodemodel.Crashed
				c.Crashed(i)
				continue
			}
			if src.Bernoulli(s.Params.PU) {
				// Software update silently cleans the node (eq. 2g).
				nd.state = nodemodel.Healthy
				nd.underAttack = false
				c.Cleaned(i)
			}
		}
	}
}

// Summary holds a mean and its 95% confidence half-width.
type Summary struct {
	Mean float64
	CI   float64
}

// Welford accumulates a running mean and variance in one pass (Welford's
// online algorithm), so multi-seed and fleet-scale evaluations can fold
// per-run metrics into summaries without retaining the samples. Folding the
// same values in the same order always produces bit-identical results.
type Welford struct {
	// Count is the number of folded samples.
	Count int64
	// Mean is the running sample mean.
	Mean float64
	// M2 is the running sum of squared deviations from the mean.
	M2 float64
}

// Add folds one sample.
func (w *Welford) Add(x float64) {
	w.Count++
	delta := x - w.Mean
	w.Mean += delta / float64(w.Count)
	w.M2 += delta * (x - w.Mean)
}

// Merge folds another accumulator's state into w, as if its samples had
// been appended to w's stream (Chan et al.'s parallel combination of the
// running moments). Merging the pieces of a split stream reproduces the
// single-stream mean and variance up to floating-point rounding; exact
// bit-identity with a sequential Add fold is not guaranteed. Merge itself
// is deterministic, which is what the fleet relies on: it folds through
// fixed-span partials whose boundaries are a pure function of the
// schedule, so every path (workers, shard-merge, resume, coordinator)
// performs the identical Merge sequence and stays byte-identical.
func (w *Welford) Merge(other Welford) {
	if other.Count == 0 {
		return
	}
	if w.Count == 0 {
		*w = other
		return
	}
	n := float64(w.Count + other.Count)
	delta := other.Mean - w.Mean
	w.Mean += delta * float64(other.Count) / n
	w.M2 += other.M2 + delta*delta*float64(w.Count)*float64(other.Count)/n
	w.Count += other.Count
}

// Variance returns the sample variance (zero below two samples).
func (w *Welford) Variance() float64 {
	if w.Count < 2 {
		return 0
	}
	return w.M2 / float64(w.Count-1)
}

// Summary returns the mean with its 95% Student-t confidence half-width.
func (w *Welford) Summary() Summary {
	if w.Count < 2 {
		return Summary{Mean: w.Mean}
	}
	se := math.Sqrt(w.Variance() / float64(w.Count))
	return Summary{Mean: w.Mean, CI: tCritical95(int(w.Count)-1) * se}
}

// Aggregate is the multi-seed result for one strategy/configuration cell of
// Table 7.
type Aggregate struct {
	Availability       Summary
	QuorumAvailability Summary
	TimeToRecovery     Summary
	RecoveryFrequency  Summary
	AvgNodes           Summary
	Cost               Summary
	// Latency summarizes measured service latency (ms) for backends that
	// report it; nil — and therefore absent from the serialization — when no
	// folded run carried a latency, which keeps emulation-backend results
	// byte-identical to releases that predate the field.
	Latency *Summary `json:"Latency,omitempty"`
}

// Accumulator streams per-run Metrics into an Aggregate (one Welford
// accumulator per metric).
type Accumulator struct {
	Availability       Welford
	QuorumAvailability Welford
	TimeToRecovery     Welford
	RecoveryFrequency  Welford
	AvgNodes           Welford
	Cost               Welford
	// Latency folds only runs that measured a service latency (cluster
	// backend); its count is therefore allowed to trail the other lanes.
	Latency Welford
}

// Add folds one run's metrics.
func (a *Accumulator) Add(m *Metrics) {
	a.Availability.Add(m.Availability)
	a.QuorumAvailability.Add(m.QuorumAvailability)
	a.TimeToRecovery.Add(m.TimeToRecovery)
	a.RecoveryFrequency.Add(m.RecoveryFrequency)
	a.AvgNodes.Add(m.AvgNodes)
	a.Cost.Add(m.AvgCost)
	if m.ServiceLatencyMS > 0 {
		a.Latency.Add(m.ServiceLatencyMS)
	}
}

// Merge folds another accumulator's summaries into a, as if the other's
// runs had been appended to a's stream. The fleet engine folds through
// fixed-span per-cell partials merged in schedule order, so Merge sits on
// the byte-stability path: it must stay deterministic (same inputs, same
// bits) even though it is not bit-equivalent to a sequential Add fold.
func (a *Accumulator) Merge(other *Accumulator) {
	a.Availability.Merge(other.Availability)
	a.QuorumAvailability.Merge(other.QuorumAvailability)
	a.TimeToRecovery.Merge(other.TimeToRecovery)
	a.RecoveryFrequency.Merge(other.RecoveryFrequency)
	a.AvgNodes.Merge(other.AvgNodes)
	a.Cost.Merge(other.Cost)
	a.Latency.Merge(other.Latency)
}

// Runs returns the number of folded runs.
func (a *Accumulator) Runs() int64 { return a.Availability.Count }

// Aggregate summarizes the folded runs.
func (a *Accumulator) Aggregate() *Aggregate {
	out := a.AggregateValue()
	return &out
}

// AggregateValue summarizes the folded runs without allocating — the form
// fleet result assembly uses once per grid cell.
func (a *Accumulator) AggregateValue() Aggregate {
	out := Aggregate{
		Availability:       a.Availability.Summary(),
		QuorumAvailability: a.QuorumAvailability.Summary(),
		TimeToRecovery:     a.TimeToRecovery.Summary(),
		RecoveryFrequency:  a.RecoveryFrequency.Summary(),
		AvgNodes:           a.AvgNodes.Summary(),
		Cost:               a.Cost.Summary(),
	}
	if a.Latency.Count > 0 {
		s := a.Latency.Summary()
		out.Latency = &s
	}
	return out
}

// RunSeeds evaluates a scenario across seeds (the paper uses 20) and
// summarizes each metric with a Student-t 95% confidence interval.
func RunSeeds(base Scenario, seeds []int64) (*Aggregate, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("%w: no seeds", ErrBadScenario)
	}
	var acc Accumulator
	for _, seed := range seeds {
		s := base
		s.Seed = seed
		m, err := Run(s)
		if err != nil {
			return nil, err
		}
		acc.Add(m)
	}
	return acc.Aggregate(), nil
}

// tCritical95 approximates the two-sided 95% Student-t critical value by
// table lookup with the nearest smaller degrees of freedom.
func tCritical95(df int) float64 {
	if df > 49 {
		return 1.96
	}
	keys := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 14, 19, 29, 49}
	values := []float64{12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
		2.306, 2.262, 2.228, 2.145, 2.093, 2.045, 2.010}
	out := values[0]
	for i, k := range keys {
		if df >= k {
			out = values[i]
		}
	}
	return out
}
