package minbft

import (
	"fmt"
	"testing"
	"time"

	"tolerance/internal/replica"
	"tolerance/internal/transport"
	"tolerance/internal/usig"
)

var clusterKey = []byte("minbft-test-shared-key-32-bytes!")

// cluster bundles a test deployment.
type cluster struct {
	t        *testing.T
	net      *transport.SimNetwork
	replicas map[string]*Replica
	stores   map[string]*replica.KVStore
	usigs    map[string]*usig.USIG
	registry *replica.Registry
	verifier *usig.Verifier
	members  []string
	k        int
}

// newCluster starts n replicas named r0..r(n-1) over a simulated network.
func newCluster(t *testing.T, n, k int, cond transport.Conditions) *cluster {
	t.Helper()
	net, err := transport.NewSimNetwork(cond, 1)
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := usig.NewHMACVerifier(clusterKey)
	if err != nil {
		t.Fatal(err)
	}
	registry := replica.NewRegistry()
	members := make([]string, n)
	for i := 0; i < n; i++ {
		members[i] = fmt.Sprintf("r%d", i)
	}
	c := &cluster{
		t:        t,
		net:      net,
		replicas: make(map[string]*Replica),
		stores:   make(map[string]*replica.KVStore),
		usigs:    make(map[string]*usig.USIG),
		registry: registry,
		verifier: verifier,
		members:  members,
		k:        k,
	}
	for _, id := range members {
		c.startReplica(id)
	}
	t.Cleanup(c.close)
	return c
}

func (c *cluster) startReplica(id string) *Replica {
	c.t.Helper()
	u, err := usig.NewHMAC(id, clusterKey)
	if err != nil {
		c.t.Fatal(err)
	}
	return c.launch(id, u)
}

// restartReplica is a §VII-C recovery of replica id: the process stops, and
// a fresh one with an empty store starts on the same identity, resuming the
// USIG counter (peers' FIFO gate would drop a reset counter as replay) and
// catching up through state sync.
func (c *cluster) restartReplica(id string) *Replica {
	c.t.Helper()
	c.replicas[id].Stop()
	u, err := usig.ResumeHMAC(id, clusterKey, c.usigs[id].Counter())
	if err != nil {
		c.t.Fatal(err)
	}
	r := c.launch(id, u)
	r.RequestStateSync(1)
	return r
}

// launch runs replica id with trusted component u and a fresh store on the
// id's network endpoint.
func (c *cluster) launch(id string, u *usig.USIG) *Replica {
	c.t.Helper()
	ep, err := c.net.Endpoint(id)
	if err != nil {
		c.t.Fatal(err)
	}
	store := replica.NewKVStore()
	r, err := NewReplica(Config{
		ID:                 id,
		Members:            c.members,
		K:                  c.k,
		Endpoint:           ep,
		USIG:               u,
		Verifier:           c.verifier,
		Registry:           c.registry,
		Store:              store,
		RequestTimeout:     250 * time.Millisecond,
		CheckpointInterval: 5,
		TickInterval:       5 * time.Millisecond,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	c.replicas[id] = r
	c.stores[id] = store
	c.usigs[id] = u
	return r
}

func (c *cluster) close() {
	for _, r := range c.replicas {
		r.Stop()
	}
	c.net.Close()
}

// client creates a signed client attached to the network.
func (c *cluster) client(id string) *Client {
	c.t.Helper()
	signer, err := replica.NewSigner(id)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := c.registry.Register(id, signer.PublicKey()); err != nil {
		c.t.Fatal(err)
	}
	ep, err := c.net.Endpoint(id)
	if err != nil {
		c.t.Fatal(err)
	}
	f := (len(c.members) - 1 - c.k) / 2
	cl, err := NewClient(signer, ep, c.members, f)
	if err != nil {
		c.t.Fatal(err)
	}
	cl.Timeout = 8 * time.Second
	cl.RetransmitInterval = 200 * time.Millisecond
	return cl
}

// waitForAgreement blocks until the given replicas have executed at least
// seq operations or the deadline passes.
func (c *cluster) waitForAgreement(ids []string, seq uint64, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, id := range ids {
			if c.replicas[id].LastExecuted() < seq {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range ids {
		c.t.Logf("%s lastExec=%d view=%d", id, c.replicas[id].LastExecuted(), c.replicas[id].View())
	}
	c.t.Fatalf("replicas did not reach seq %d in %v", seq, timeout)
}

func TestNormalCaseWriteAndRead(t *testing.T) {
	c := newCluster(t, 3, 0, transport.Conditions{})
	cl := c.client("alice")

	result, err := cl.Submit(replica.Op{Type: replica.OpWrite, Key: "x", Value: "1"})
	if err != nil {
		t.Fatal(err)
	}
	if result != "1" {
		t.Errorf("write result = %q, want %q", result, "1")
	}
	got, err := cl.Submit(replica.Op{Type: replica.OpRead, Key: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "1" {
		t.Errorf("read = %q, want %q", got, "1")
	}
}

func TestSafetyAllHonestReplicasAgree(t *testing.T) {
	c := newCluster(t, 5, 0, transport.Conditions{})
	cl := c.client("alice")
	const ops = 20
	for i := 0; i < ops; i++ {
		if _, err := cl.Submit(replica.Op{
			Type: replica.OpWrite, Key: fmt.Sprintf("k%d", i%4), Value: fmt.Sprintf("v%d", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.waitForAgreement(c.members, ops, 5*time.Second)
	// Safety: every replica executed the same sequence => identical state.
	ref := c.stores["r0"].Digest()
	for _, id := range c.members[1:] {
		if d := c.stores[id].Digest(); d != ref {
			t.Errorf("replica %s diverged", id)
		}
	}
}

func TestValidityRejectsUnsignedRequests(t *testing.T) {
	c := newCluster(t, 3, 0, transport.Conditions{})
	// Send a forged request directly (no registered key / bad signature).
	ep, err := c.net.Endpoint("mallory")
	if err != nil {
		t.Fatal(err)
	}
	forged := &replica.Request{ClientID: "mallory", Seq: 1,
		Op: replica.Op{Type: replica.OpWrite, Key: "x", Value: "evil"}}
	payload, err := encode(typeRequest, forged)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.members {
		_ = ep.Send(m, payload)
	}
	time.Sleep(300 * time.Millisecond)
	for _, id := range c.members {
		if c.replicas[id].LastExecuted() != 0 {
			t.Fatalf("replica %s executed a forged request", id)
		}
	}
}

func TestToleratesByzantineFollower(t *testing.T) {
	// N=3, k=0 => f=1: one byzantine follower must not break the service.
	c := newCluster(t, 3, 0, transport.Conditions{})
	// Make a non-leader byzantine.
	leader := c.replicas["r0"].Leader()
	var victim string
	for _, id := range c.members {
		if id != leader {
			victim = id
			break
		}
	}
	c.replicas[victim].SetByzantine(Garbage)

	cl := c.client("alice")
	for i := 0; i < 5; i++ {
		if _, err := cl.Submit(replica.Op{
			Type: replica.OpWrite, Key: "k", Value: fmt.Sprintf("v%d", i),
		}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// The two honest replicas agree.
	honest := []string{}
	for _, id := range c.members {
		if id != victim {
			honest = append(honest, id)
		}
	}
	c.waitForAgreement(honest, 5, 5*time.Second)
	if c.stores[honest[0]].Digest() != c.stores[honest[1]].Digest() {
		t.Error("honest replicas diverged")
	}
}

func TestToleratesSilentFollower(t *testing.T) {
	c := newCluster(t, 3, 0, transport.Conditions{})
	leader := c.replicas["r0"].Leader()
	var victim string
	for _, id := range c.members {
		if id != leader {
			victim = id
			break
		}
	}
	c.replicas[victim].SetByzantine(Silent)
	cl := c.client("alice")
	if _, err := cl.Submit(replica.Op{Type: replica.OpWrite, Key: "a", Value: "b"}); err != nil {
		t.Fatal(err)
	}
}

func TestViewChangeOnLeaderCrash(t *testing.T) {
	c := newCluster(t, 3, 0, transport.Conditions{})
	leader := c.replicas["r0"].Leader()
	// Crash the leader outright.
	c.replicas[leader].Stop()
	c.net.Isolate(leader)

	cl := c.client("alice")
	start := time.Now()
	if _, err := cl.Submit(replica.Op{Type: replica.OpWrite, Key: "x", Value: "after-crash"}); err != nil {
		t.Fatalf("request after leader crash: %v", err)
	}
	t.Logf("recovered via view change in %v", time.Since(start))
	// The survivors installed a new view with a different leader.
	for _, id := range c.members {
		if id == leader {
			continue
		}
		if c.replicas[id].View() == 0 {
			t.Errorf("replica %s still in view 0", id)
		}
		if c.replicas[id].Leader() == leader {
			t.Errorf("replica %s still believes %s leads", id, leader)
		}
	}
}

func TestViewChangeOnSilentByzantineLeader(t *testing.T) {
	c := newCluster(t, 5, 0, transport.Conditions{})
	leader := c.replicas["r0"].Leader()
	c.replicas[leader].SetByzantine(Silent)

	cl := c.client("alice")
	if _, err := cl.Submit(replica.Op{Type: replica.OpWrite, Key: "x", Value: "1"}); err != nil {
		t.Fatalf("request under silent leader: %v", err)
	}
}

// TestRestartMidConsensus restarts two followers while a client keeps
// committing: every request must still succeed, and the restarted replicas
// — resuming their USIG counters so peers accept them — must catch back up
// with the group's execution.
func TestRestartMidConsensus(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	c := newCluster(t, 4, 1, transport.Conditions{})
	cl := c.client("alice")
	commit := func(i int) {
		t.Helper()
		if _, err := cl.Submit(replica.Op{
			Type: replica.OpWrite, Key: fmt.Sprintf("k%d", i), Value: "v",
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		commit(i)
	}
	// Restart two non-primary replicas back to back, committing between
	// them so the restarts land mid-stream, not between idle periods.
	c.restartReplica("r1")
	for i := 5; i < 10; i++ {
		commit(i)
	}
	c.restartReplica("r2")
	for i := 10; i < 15; i++ {
		commit(i)
	}
	// State sync plus live commits must bring the restarted replicas'
	// execution watermark up to the group's within the timeout.
	target := c.replicas["r0"].LastExecuted()
	if target == 0 {
		t.Fatal("r0 executed nothing")
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range []string{"r1", "r2"} {
		for c.replicas[id].LastExecuted() < target {
			if time.Now().After(deadline) {
				t.Fatalf("%s stuck at %d, group at %d", id, c.replicas[id].LastExecuted(), target)
			}
			// Re-request sync while waiting: a commit that lands during
			// the initial transfer window leaves a gap the next stable
			// checkpoint (or this retry) closes.
			c.replicas[id].RequestStateSync(target)
			time.Sleep(50 * time.Millisecond)
		}
	}
	// A restart is not an eviction: membership is untouched.
	for _, id := range []string{"r0", "r1", "r2"} {
		if got := len(c.replicas[id].Members()); got != 4 {
			t.Errorf("%s sees %d members after restarts, want 4", id, got)
		}
	}
}

func TestCheckpointsBecomeStable(t *testing.T) {
	c := newCluster(t, 3, 0, transport.Conditions{})
	cl := c.client("alice")
	// CheckpointInterval is 5; run 12 ops to cross two checkpoints.
	for i := 0; i < 12; i++ {
		if _, err := cl.Submit(replica.Op{
			Type: replica.OpWrite, Key: "k", Value: fmt.Sprintf("%d", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.replicas["r0"].StableCheckpoint() >= 10 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("stable checkpoint = %d, want >= 10", c.replicas["r0"].StableCheckpoint())
}

func TestStateTransferForLaggingReplica(t *testing.T) {
	c := newCluster(t, 3, 0, transport.Conditions{})
	// Isolate r2, run traffic, then heal and let it catch up.
	c.net.Isolate("r2")
	cl := c.client("alice")
	for i := 0; i < 8; i++ {
		if _, err := cl.Submit(replica.Op{
			Type: replica.OpWrite, Key: fmt.Sprintf("k%d", i), Value: "v",
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.net.Heal()
	// Ask for a sync explicitly (a recovered node does this on restart).
	c.replicas["r2"].RequestStateSync(1)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.stores["r2"].Digest() == c.stores["r0"].Digest() &&
			c.replicas["r2"].LastExecuted() >= 8 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("r2 did not catch up: lastExec=%d", c.replicas["r2"].LastExecuted())
}

func TestReconfigurationJoin(t *testing.T) {
	c := newCluster(t, 3, 0, transport.Conditions{})
	cl := c.client("admin")

	// Start the new replica first so it can receive protocol traffic.
	c.members = append(c.members, "r3")
	newR := c.startReplica("r3")
	_ = newR

	op, err := EncodeConfigOp("join", "r3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(op); err != nil {
		t.Fatal(err)
	}
	// All original replicas now list r3.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, id := range []string{"r0", "r1", "r2"} {
			if len(c.replicas[id].Members()) != 4 {
				ok = false
			}
		}
		if ok {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, id := range []string{"r0", "r1", "r2"} {
		if got := len(c.replicas[id].Members()); got != 4 {
			t.Fatalf("%s has %d members, want 4", id, got)
		}
	}
	// The joiner syncs state and can participate.
	c.replicas["r3"].RequestStateSync(1)
	cl.UpdateMembership(c.replicas["r0"].Members(), c.replicas["r0"].Tolerance())
	if _, err := cl.Submit(replica.Op{Type: replica.OpWrite, Key: "post-join", Value: "yes"}); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigurationEvictNonLeader(t *testing.T) {
	c := newCluster(t, 5, 0, transport.Conditions{})
	cl := c.client("admin")
	leader := c.replicas["r0"].Leader()
	var victim string
	for _, id := range c.members {
		if id != leader {
			victim = id
			break
		}
	}
	op, err := EncodeConfigOp("evict", victim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(op); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.replicas[leader].Members()) == 4 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := len(c.replicas[leader].Members()); got != 4 {
		t.Fatalf("leader has %d members after evict, want 4", got)
	}
	// Service continues with the smaller group.
	cl.UpdateMembership(c.replicas[leader].Members(), c.replicas[leader].Tolerance())
	if _, err := cl.Submit(replica.Op{Type: replica.OpWrite, Key: "post-evict", Value: "yes"}); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigurationEvictLeaderTriggersViewChange(t *testing.T) {
	c := newCluster(t, 5, 0, transport.Conditions{})
	cl := c.client("admin")
	leader := c.replicas["r0"].Leader()
	op, err := EncodeConfigOp("evict", leader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(op); err != nil {
		t.Fatal(err)
	}
	c.net.Isolate(leader) // the evicted node is gone
	var survivor string
	for _, id := range c.members {
		if id != leader {
			survivor = id
			break
		}
	}
	cl.UpdateMembership(c.replicas[survivor].Members(), c.replicas[survivor].Tolerance())
	if _, err := cl.Submit(replica.Op{Type: replica.OpWrite, Key: "after", Value: "evict-leader"}); err != nil {
		t.Fatalf("service did not survive leader eviction: %v", err)
	}
	if c.replicas[survivor].Leader() == leader {
		t.Error("survivor still believes the evicted node leads")
	}
}

func TestLossyNetworkStillCommits(t *testing.T) {
	// The paper's emulation uses 0.05%-0.1% loss; we stress with 5%.
	c := newCluster(t, 3, 0, transport.Conditions{Loss: 0.05})
	cl := c.client("alice")
	for i := 0; i < 5; i++ {
		if _, err := cl.Submit(replica.Op{
			Type: replica.OpWrite, Key: "k", Value: fmt.Sprintf("%d", i),
		}); err != nil {
			t.Fatalf("op %d under loss: %v", i, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	net, _ := transport.NewSimNetwork(transport.Conditions{}, 1)
	defer net.Close()
	ep, _ := net.Endpoint("x")
	u, _ := usig.NewHMAC("x", clusterKey)
	v, _ := usig.NewHMACVerifier(clusterKey)
	reg := replica.NewRegistry()
	store := replica.NewKVStore()

	base := Config{ID: "x", Members: []string{"x", "y"}, Endpoint: ep,
		USIG: u, Verifier: v, Registry: reg, Store: store}
	if _, err := NewReplica(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	bad := base
	bad.Members = []string{"a", "b"}
	if _, err := NewReplica(bad); err == nil {
		t.Error("id not in members should fail")
	}
	bad = base
	bad.Members = []string{"x"}
	if _, err := NewReplica(bad); err == nil {
		t.Error("single member should fail")
	}
	bad = base
	bad.K = -1
	if _, err := NewReplica(bad); err == nil {
		t.Error("negative k should fail")
	}
	r, err := NewReplica(base)
	if err != nil {
		t.Fatal(err)
	}
	r.Stop()
	r.Stop() // idempotent
}

func TestEncodeConfigOpValidation(t *testing.T) {
	if _, err := EncodeConfigOp("reboot", "r1"); err == nil {
		t.Error("unknown action should fail")
	}
	if _, err := EncodeConfigOp("join", ""); err == nil {
		t.Error("empty node should fail")
	}
	op, err := EncodeConfigOp("join", "r9")
	if err != nil {
		t.Fatal(err)
	}
	if op.Key != ConfigKey {
		t.Errorf("key = %q", op.Key)
	}
}

func TestToleranceThreshold(t *testing.T) {
	// f = (N-1-k)/2 per Prop. 1.
	c := newCluster(t, 5, 0, transport.Conditions{})
	if f := c.replicas["r0"].Tolerance(); f != 2 {
		t.Errorf("f = %d, want 2 for N=5, k=0", f)
	}
	c2 := newCluster(t, 4, 1, transport.Conditions{})
	if f := c2.replicas["r0"].Tolerance(); f != 1 {
		t.Errorf("f = %d, want 1 for N=4, k=1", f)
	}
}
