package emulation

import (
	"math"
	"math/rand"

	"tolerance/internal/baselines"
	"tolerance/internal/ids"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

// Controller is the two-level feedback controller of Fig 1 together with
// the bookkeeping that scores it: node controllers running the Appendix A
// belief recursion, forced BTR recoveries and K-capped threshold recoveries
// in descending-belief order, the system controller's healthy-node estimate
// and add decision, and the eq. (5) cost, T(A), T(R) and F(R) tally.
//
// A backend owns the environment — containers, intrusions, crashes, real
// processes — and every random draw; it reports what it observes and
// carries out what the controller decides. One step, in order:
//
//  1. Observe each node's alert count, then UpdateBeliefs.
//  2. SelectRecoveries; for each selected node, draw the replacement
//     container and call Recover.
//  3. Remove the crashed nodes in place, calling MoveNode for every kept
//     node that shifts down, then Evict; call Grow and, when it says so,
//     draw the new node's container and AddNode it.
//  4. Tally; then apply the environment transition, reporting Compromised,
//     Crashed and Cleaned.
//
// After the last step, Finish assembles the Metrics. The emulation runner
// and the live-cluster backend both step through this one type, so the two
// agree on every decision for the same beliefs.
//
// The per-node state is kept in struct-of-arrays lanes indexed by node
// position, so the recursion runs over dense slices and a controller reused
// across scenarios allocates nothing once warm.
type Controller struct {
	s    Scenario
	fits *FitSet

	// ln is the SoA monitoring state (see beliefLanes); epoch stamps the
	// per-step forced-recovery marks, so the threshold pass's exclusion
	// test is one lane compare instead of a scan over the recovering list.
	ln    beliefLanes
	epoch uint32
	// observed is the node count at this step's observation pass: the
	// length of the observation lane handed to the add decision.
	observed int
	// evicted is this step's eviction count (the T(A) condition).
	evicted int

	// Per-step scratch, reused across steps (node indices).
	recovering []int32
	candidates []int32

	m              Metrics
	recoveryTimes  []float64
	availableSteps int
	quorumSteps    int
	nodeSteps      int
	totalNodes     float64
	costSum        float64
	obsSum         float64
	obsCount       int
}

// NewController returns a controller with no nodes for a scenario that has
// been through ApplyDefaults, monitoring with the observation model fits.
func NewController(s Scenario, fits *FitSet) *Controller {
	c := &Controller{}
	c.reset(s, fits)
	return c
}

// reset empties the controller for a new scenario, keeping every lane and
// scratch buffer's capacity.
func (c *Controller) reset(s Scenario, fits *FitSet) {
	c.s, c.fits = s, fits
	c.ln.truncate(0)
	if cap(c.ln.belief) < s.SMax {
		c.ln.reserve(s.SMax)
	}
	c.epoch = 0
	c.observed, c.evicted = 0, 0
	c.recovering = c.recovering[:0]
	c.candidates = c.candidates[:0]
	c.m = Metrics{}
	c.recoveryTimes = c.recoveryTimes[:0]
	c.availableSteps, c.quorumSteps, c.nodeSteps = 0, 0, 0
	c.totalNodes, c.costSum, c.obsSum = 0, 0, 0
	c.obsCount = 0
}

// finite reports whether the scenario bounds the time to recovery.
func (c *Controller) finite() bool { return c.s.DeltaR != recovery.InfiniteDeltaR }

// InitialPhase is the BTR calendar offset of the i-th initial node: the
// forced recoveries are staggered evenly over the window.
func (c *Controller) InitialPhase(i int) int {
	if !c.finite() {
		return 0
	}
	return (i * c.s.DeltaR) / c.s.N1
}

// AddNode appends a node running catalog container ci, with BTR calendar
// offset phase, at step t (0 at placement): its belief starts at pA and its
// window position at (t+phase) % DeltaR.
func (c *Controller) AddNode(ci, phase, t int) {
	window := 0
	if c.finite() {
		window = (t + phase) % c.s.DeltaR
	}
	c.ln.appendNode(c.s.Params.PA, int32(ci*c.fits.support), int32(phase), int32(window))
}

// Observe records node i's alert count for this step, clamped to the alert
// support.
func (c *Controller) Observe(i, obs int) {
	if obs >= ids.AlertSupport {
		obs = ids.AlertSupport - 1
	}
	c.ln.obs[i] = obs
}

// UpdateBeliefs runs the Appendix A recursion for every node on this step's
// observations: it gathers each observation's likelihood pair from the
// FitSet slabs into dense lanes, then updates the belief lane in one batch
// (updateBeliefLanes), bit-identical to the scalar recursion.
func (c *Controller) UpdateBeliefs() {
	L := &c.ln
	n := len(L.belief)
	obs, zh, zc := L.obs[:n], L.zh[:n], L.zc[:n]
	zhFlat, zcFlat := c.fits.zhFlat, c.fits.zcFlat
	for i, o := range obs {
		c.obsSum += float64(o)
		flat := int(L.off[i]) + o
		zh[i] = zhFlat[flat]
		zc[i] = zcFlat[flat]
	}
	c.obsCount += n
	c.observed = n
	updateBeliefLanes(c.s.Params, L.belief, L.action, zh, zc)
}

// SelectRecoveries returns the nodes to recover at step t: forced calendar
// recoveries first (eq. 6b, for policies that use BTR), then the policy's
// threshold recoveries in descending belief order, at most K in total.
// Every node's window position advances to (t+phase) % DeltaR first. The
// returned slice is scratch, valid until the next call.
func (c *Controller) SelectRecoveries(t int) []int32 {
	s := &c.s
	L := &c.ln
	c.epoch++
	epoch := c.epoch
	recovering := c.recovering[:0]
	finite := c.finite()
	if finite {
		btr := s.Policy.UsesBTR()
		deltaR := int32(s.DeltaR)
		for i, w := range L.window {
			w++
			if w == deltaR {
				w = 0
			}
			L.window[i] = w
			if btr && w == 0 && len(recovering) < s.K {
				recovering = append(recovering, int32(i))
				L.mark[i] = epoch
			}
		}
	}
	candidates := c.candidates[:0]
	for i, b := range L.belief {
		if L.mark[i] == epoch {
			continue
		}
		windowPos := t + int(L.phase[i])
		if finite {
			windowPos = int(L.window[i])
			if windowPos == 0 {
				continue
			}
		}
		action := s.Policy.NodeAction(baselines.NodeContext{
			Belief:    b,
			Obs:       L.obs[i],
			WindowPos: windowPos,
			DeltaR:    s.DeltaR,
		})
		if action == nodemodel.Recover {
			candidates = append(candidates, int32(i))
		}
	}
	sortIndicesByBelief(candidates, L.belief)
	for _, ci := range candidates {
		if len(recovering) >= s.K {
			break
		}
		recovering = append(recovering, ci)
	}
	c.recovering, c.candidates = recovering, candidates
	clear(L.action)
	return recovering
}

// Recover records that node i was recovered at step t onto catalog
// container ci: the belief resets to pA, and an intrusion the node carried
// counts toward T(R) with its time since compromise.
func (c *Controller) Recover(i, t, ci int) {
	L := &c.ln
	c.m.Recoveries++
	if at := L.since[i]; at >= 0 {
		c.recoveryTimes = append(c.recoveryTimes, float64(t-int(at)))
		L.since[i] = -1
	}
	L.off[i] = int32(ci * c.fits.support)
	L.belief[i] = c.s.Params.PA
	L.action[i] = uint8(nodemodel.Recover)
}

// MoveNode moves node src's state to position dst, for a backend compacting
// its node list.
func (c *Controller) MoveNode(dst, src int) { c.ln.move(dst, src) }

// Evict drops the nodes from position kept on — the crashed nodes, which
// failed to report a belief (§V-B) — counting each as an eviction.
func (c *Controller) Evict(kept int) {
	c.evicted = len(c.ln.belief) - kept
	c.m.Evictions += c.evicted
	c.ln.truncate(kept)
}

// Grow is the system controller's add decision (eq. 8): the policy sees
// the healthy-node estimate floor(sum(1-b_i)), capped at SMax, this step's
// observations and their running mean. When it adds a node below SMax,
// Grow draws the node's BTR calendar offset from rng, counts the addition
// and returns true; the backend then adds the node with AddNode.
func (c *Controller) Grow(rng *rand.Rand) (phase int, add bool) {
	s := &c.s
	L := &c.ln
	healthyEstimate := 0.0
	for _, b := range L.belief {
		healthyEstimate += 1 - b
	}
	est := int(math.Floor(healthyEstimate))
	if est > s.SMax {
		est = s.SMax
	}
	meanObs := 0.0
	if c.obsCount > 0 {
		meanObs = c.obsSum / float64(c.obsCount)
	}
	n := len(L.belief)
	if n >= s.SMax || !s.Policy.AddNode(baselines.SystemContext{
		HealthyEstimate: est,
		AliveNodes:      n,
		Observations:    L.obs[:c.observed],
		MeanObs:         meanObs,
		Rng:             rng,
	}) {
		return 0, false
	}
	if c.finite() {
		phase = rng.Intn(s.DeltaR)
	}
	c.m.Additions++
	return phase, true
}

// Tally scores the step once the controllers have acted: eq. (5) charges 1
// per recovery and eta per compromised node left waiting; the step counts
// toward T(A) when at most f nodes are compromised or were evicted this
// step (§III-C), and toward quorum availability when N_t >= 2f+1+k as well.
func (c *Controller) Tally() {
	s := &c.s
	L := &c.ln
	compromised := 0
	for i, at := range L.since {
		switch {
		case L.action[i] == uint8(nodemodel.Recover):
			c.costSum++
		case at >= 0:
			c.costSum += s.Params.Eta
		}
		if at >= 0 {
			compromised++
		}
	}
	n := len(L.since)
	if compromised+c.evicted <= s.F {
		c.availableSteps++
		if n >= 2*s.F+1+s.K {
			c.quorumSteps++
		}
	}
	c.nodeSteps += n
	c.totalNodes += float64(n)
}

// Compromised records that node i's intrusion completed at step t.
func (c *Controller) Compromised(i, t int) {
	c.ln.since[i] = int32(t)
	c.m.Intrusions++
}

// Crashed records that node i crashed: an intrusion it carried is never
// recovered and takes the T(R) penalty.
func (c *Controller) Crashed(i int) {
	if c.ln.since[i] >= 0 {
		c.recoveryTimes = append(c.recoveryTimes, recovery.NoRecoveryPenalty)
		c.ln.since[i] = -1
	}
}

// Cleaned records that a software update silently cleaned node i (eq. 2g).
// It is not a controller recovery, so T(R) records nothing.
func (c *Controller) Cleaned(i int) { c.ln.since[i] = -1 }

// Finish applies the end-of-run T(R) penalty to intrusions still
// unrecovered and assembles the run's metrics.
func (c *Controller) Finish() Metrics {
	s := &c.s
	m := &c.m
	for _, at := range c.ln.since {
		if at >= 0 {
			c.recoveryTimes = append(c.recoveryTimes, recovery.NoRecoveryPenalty)
		}
	}
	m.Availability = float64(c.availableSteps) / float64(s.Steps)
	m.QuorumAvailability = float64(c.quorumSteps) / float64(s.Steps)
	if c.nodeSteps > 0 {
		m.RecoveryFrequency = float64(m.Recoveries) / float64(c.nodeSteps)
		m.AvgCost = c.costSum / float64(c.nodeSteps)
	}
	if len(c.recoveryTimes) > 0 {
		sum := 0.0
		for _, v := range c.recoveryTimes {
			sum += v
		}
		m.TimeToRecovery = sum / float64(len(c.recoveryTimes))
	}
	m.AvgNodes = c.totalNodes / float64(s.Steps)
	return *m
}

// beliefLanes is the per-node controller state in struct-of-arrays form,
// indexed by node position. The persistent lanes (belief through since)
// are appended on AddNode, compacted by MoveNode and truncated by Evict;
// obs, zh and zc are per-step lanes sized for SMax nodes, of which the
// first node-count entries at the observation pass are live (so they still
// cover nodes evicted later in the step). Backing arrays are reused across
// steps and scenarios, preserving the warm-runner zero-allocation property.
type beliefLanes struct {
	belief []float64 // node-controller belief b_t
	off    []int32   // flat Ẑ slab offset = container index × alert support
	action []uint8   // last action (uint8(nodemodel.Wait) = 0, Recover = 1)
	mark   []uint32  // forced-recovery epoch mark (threshold-pass exclusion)
	phase  []int32   // BTR calendar offset
	// window is the BTR window position (t+phase) % DeltaR at the current
	// step t, advanced and wrapped once per step instead of taking the
	// modulo (finite DeltaR only).
	window []int32
	since  []int32   // step of the completed compromise, -1 when none
	obs    []int     // this step's observations (also the add-decision context)
	zh, zc []float64 // gathered likelihoods Ẑ(o_i|H), Ẑ(o_i|C)
}

// appendNode adds one node's state (fresh belief pa, Ẑ offset off, BTR
// offset and window position) to the persistent lanes.
func (l *beliefLanes) appendNode(pa float64, off, phase, window int32) {
	l.belief = append(l.belief, pa)
	l.off = append(l.off, off)
	l.action = append(l.action, 0)
	l.mark = append(l.mark, 0)
	l.phase = append(l.phase, phase)
	l.window = append(l.window, window)
	l.since = append(l.since, -1)
}

// move copies the persistent lane entries of src to dst (eviction
// compaction, mirroring the backend's node-slice compaction).
func (l *beliefLanes) move(dst, src int) {
	l.belief[dst] = l.belief[src]
	l.off[dst] = l.off[src]
	l.action[dst] = l.action[src]
	l.mark[dst] = l.mark[src]
	l.phase[dst] = l.phase[src]
	l.window[dst] = l.window[src]
	l.since[dst] = l.since[src]
}

// truncate shortens the persistent lanes to n entries, keeping capacity.
func (l *beliefLanes) truncate(n int) {
	l.belief = l.belief[:n]
	l.off = l.off[:n]
	l.action = l.action[:n]
	l.mark = l.mark[:n]
	l.phase = l.phase[:n]
	l.window = l.window[:n]
	l.since = l.since[:n]
}

// reserve sizes every lane for n nodes in one shot. The replication cap
// s_max bounds the node count for the whole run, so reserving once at reset
// replaces the per-lane append-doubling series with a single allocation per
// lane type — and a controller reused across scenarios of equal cap never
// allocates lanes again. Only called on empty lanes (after truncate(0)).
func (l *beliefLanes) reserve(n int) {
	fl := make([]float64, 3*n)
	l.belief = fl[0:0:n]
	l.zh = fl[n : 2*n : 2*n]
	l.zc = fl[2*n : 3*n : 3*n]
	i32 := make([]int32, 4*n)
	l.off = i32[0:0:n]
	l.phase = i32[n : n : 2*n]
	l.window = i32[2*n : 2*n : 3*n]
	l.since = i32[3*n : 3*n : 4*n]
	l.action = make([]uint8, 0, n)
	l.mark = make([]uint32, 0, n)
	l.obs = make([]int, n)
}

// updateBeliefFitted is the Appendix A belief recursion using the
// controller's estimated observation model Ẑ, supplied as dense likelihood
// tables (zh[o] = Ẑ(o|H), zc[o] = Ẑ(o|C)): the scalar oracle the lanes are
// checked against.
func updateBeliefFitted(p nodemodel.Params, zh, zc []float64, belief float64, action nodemodel.Action, obs int) float64 {
	pred := p.PredictBelief(belief, action)
	num := zc[obs] * pred
	den := num + zh[obs]*(1-pred)
	if den <= 0 {
		return belief
	}
	b := num / den
	return math.Min(1, math.Max(0, b))
}

// updateBeliefLanes is the batched form of updateBeliefFitted: one pass of
// the Appendix A recursion over the dense belief/action/likelihood lanes,
// with the model constants hoisted out of the loop. Every per-element
// floating-point operation is the same expression, in the same order, as
// the scalar recursion through Params.PredictBelief, so the updated beliefs
// are bit-identical (guarded by TestBeliefLanesMatchScalar); hoisting
// (1-pC1), (1-pC2) and (1-pU) is bit-safe because each is still computed by
// the identical single subtraction. The clamp is branch form rather than
// math.Min/math.Max: num >= +0 and den > 0 exclude NaN and -0, so the
// branches return the same bits while keeping libm calls out of the loop.
func updateBeliefLanes(p nodemodel.Params, belief []float64, action []uint8, zh, zc []float64) {
	if len(action) < len(belief) || len(zh) < len(belief) || len(zc) < len(belief) {
		panic("emulation: belief lane shape")
	}
	pa := p.PA
	keepH := 1 - p.PC1 // healthy survival (eq. 2a-2e row mass)
	keepC := 1 - p.PC2 // compromised survival
	stayC := 1 - p.PU  // compromised and not cleaned by an update
	for i, b := range belief {
		pred := pa // recover action resets the compromise prior (eq. 2f-2i)
		if action[i] == uint8(nodemodel.Wait) {
			wh := (1 - b) * keepH
			wc := b * keepC
			surv := wh + wc
			if surv <= 0 {
				pred = b
			} else {
				pred = (wh*pa + wc*stayC) / surv
			}
		}
		num := zc[i] * pred
		den := num + zh[i]*(1-pred)
		if den <= 0 {
			continue // degenerate likelihoods: the belief carries over
		}
		nb := num / den
		if nb > 1 {
			nb = 1
		} else if nb < 0 {
			nb = 0
		}
		belief[i] = nb
	}
}

// sortIndicesByBelief sorts candidate node indices in descending belief
// order over the belief lane — a stable insertion sort (ties keep node
// order), without a pointer chase per comparison.
func sortIndicesByBelief(idx []int32, belief []float64) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && belief[idx[j]] > belief[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}
