package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/relation"
	"repro/internal/serve"
)

// fleet is an in-process multi-node cluster: real serve.Servers with
// durability on, behind real HTTP listeners, fronted by a Router that
// talks to them through serve.Client — the full wire path pkgrecr
// routes in production, in one test process. Each node sits behind a
// gate so tests can kill and revive it without tearing down the HTTP
// stack.
type fleet struct {
	router  *Router
	servers []*serve.Server
	gates   []*gate
	names   []string
}

func newFleet(t *testing.T, n, replicas int, shards map[string]int) *fleet {
	t.Helper()
	f := &fleet{}
	var nodes []Node
	for i := 0; i < n; i++ {
		srv := serve.NewServer(serve.Options{})
		if err := srv.OpenWAL(serve.WALConfig{Dir: t.TempDir()}); err != nil {
			t.Fatalf("node %d WAL: %v", i, err)
		}
		ts := httptest.NewServer(serve.NewHandler(srv.Service()))
		t.Cleanup(func() { ts.Close(); _ = srv.Close() })
		name := string(rune('a' + i))
		g := &gate{inner: serve.NewClient(ts.URL)}
		f.servers = append(f.servers, srv)
		f.gates = append(f.gates, g)
		f.names = append(f.names, name)
		nodes = append(nodes, Node{Name: name, Svc: g})
	}
	router, err := New(Options{Nodes: nodes, Replicas: replicas, ShardSolves: shards})
	if err != nil {
		t.Fatal(err)
	}
	f.router = router
	return f
}

// gateIndex maps a placement node back to its fleet slot.
func (f *fleet) gateIndex(t *testing.T, n *node) int {
	t.Helper()
	for i, name := range f.names {
		if name == n.name {
			return i
		}
	}
	t.Fatalf("unknown node %q", n.name)
	return -1
}

// gate wraps a node's service with a kill switch: while down, every
// call fails with an UnavailableError — the same retryable taxonomy
// code a dead TCP endpoint classifies as — so the router exercises its
// real failover and health paths.
type gate struct {
	inner serve.Service
	down  atomic.Bool
}

var errKilled = errors.New("node killed by test")

func (g *gate) err() error { return &serve.UnavailableError{Err: errKilled} }

func (g *gate) Solve(ctx context.Context, req serve.Request) (*serve.Response, error) {
	if g.down.Load() {
		return nil, g.err()
	}
	return g.inner.Solve(ctx, req)
}

func (g *gate) SolveBatch(ctx context.Context, breq serve.BatchRequest) (*serve.BatchResponse, error) {
	if g.down.Load() {
		return nil, g.err()
	}
	return g.inner.SolveBatch(ctx, breq)
}

func (g *gate) PutCollection(ctx context.Context, name string, db *relation.Database) (serve.CollectionInfo, error) {
	if g.down.Load() {
		return serve.CollectionInfo{}, g.err()
	}
	return g.inner.PutCollection(ctx, name, db)
}

func (g *gate) ApplyDelta(ctx context.Context, name string, delta relation.Delta) (serve.DeltaInfo, error) {
	if g.down.Load() {
		return serve.DeltaInfo{}, g.err()
	}
	return g.inner.ApplyDelta(ctx, name, delta)
}

func (g *gate) GetCollection(ctx context.Context, name string) (serve.CollectionInfo, error) {
	if g.down.Load() {
		return serve.CollectionInfo{}, g.err()
	}
	return g.inner.GetCollection(ctx, name)
}

func (g *gate) RemoveCollection(ctx context.Context, name string) error {
	if g.down.Load() {
		return g.err()
	}
	return g.inner.RemoveCollection(ctx, name)
}

func (g *gate) Collections(ctx context.Context) ([]serve.CollectionInfo, error) {
	if g.down.Load() {
		return nil, g.err()
	}
	return g.inner.Collections(ctx)
}

func (g *gate) Stats(ctx context.Context) (*serve.Stats, error) {
	if g.down.Load() {
		return nil, g.err()
	}
	return g.inner.Stats(ctx)
}

func (g *gate) FlushCache(ctx context.Context) error {
	if g.down.Load() {
		return g.err()
	}
	return g.inner.FlushCache(ctx)
}

func (g *gate) Health(ctx context.Context) error {
	if g.down.Load() {
		return g.err()
	}
	return g.inner.Health(ctx)
}

func (g *gate) WALStream(ctx context.Context, name string, since uint64) (*serve.WALStream, error) {
	if g.down.Load() {
		return nil, g.err()
	}
	return g.inner.(serve.WALStreamer).WALStream(ctx, name, since)
}

// itemRequest lifts a sampled workload item to a solve request.
func itemRequest(coll string, w experiments.WorkloadItem) serve.Request {
	return serve.Request{
		Collection: coll, Op: w.Op, Spec: w.Spec, Backend: w.Backend,
		Selection: w.Selection, Relax: w.Relax, MaxSuggestions: w.MaxSuggestions,
	}
}

// checkIdentical asserts the router and the reference single-node
// service answer every item byte-identically (the Result JSON — the
// full operation answer including package tuples, ratings and bounds).
func checkIdentical(t *testing.T, router, ref serve.Service, coll string, items []experiments.WorkloadItem) {
	t.Helper()
	ctx := context.Background()
	for i, w := range items {
		req := itemRequest(coll, w)
		got, err := router.Solve(ctx, req)
		if err != nil {
			t.Fatalf("item %d (%s): router: %v", i, w.Op, err)
		}
		want, err := ref.Solve(ctx, req)
		if err != nil {
			t.Fatalf("item %d (%s): reference: %v", i, w.Op, err)
		}
		gj, err := json.Marshal(got.Result)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(want.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(gj) != string(wj) {
			t.Fatalf("item %d (%s): fleet answer diverged from single node\nfleet:  %s\nsingle: %s",
				i, w.Op, gj, wj)
		}
	}
}

// checkConverged asserts every node holds the collection at the
// reference fingerprint.
func checkConverged(t *testing.T, f *fleet, ref *serve.Server, coll string) {
	t.Helper()
	want, ok := ref.Collection(coll)
	if !ok {
		t.Fatalf("reference lost collection %q", coll)
	}
	for i, srv := range f.servers {
		info, ok := srv.Collection(coll)
		if !ok {
			t.Fatalf("node %s has no collection %q", f.names[i], coll)
		}
		if info.Fingerprint != want.Fingerprint {
			t.Fatalf("node %s fingerprint %s != reference %s", f.names[i], info.Fingerprint, want.Fingerprint)
		}
	}
}

// TestFleetBitIdentityUnderChurn pins the tentpole property: a 3-node
// fleet with full replication and 3-way shard fan-out answers every
// workload op — the paper's six, plus the ranked relaxplan — exactly
// as one daemon does, byte for byte, across a sequence of collection
// deltas to the relation every query reads.
func TestFleetBitIdentityUnderChurn(t *testing.T) {
	const coll = "fleet"
	f := newFleet(t, 3, 3, map[string]int{coll: 3})
	ref := serve.NewServer(serve.Options{})
	refSvc := ref.Service()
	ctx := context.Background()

	db := experiments.WorkloadDB(40)
	if _, err := f.router.PutCollection(ctx, coll, db); err != nil {
		t.Fatal(err)
	}
	if _, err := refSvc.PutCollection(ctx, coll, db); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	ops := append(append([]string{}, experiments.WorkloadOps...), "relaxplan")
	items, err := experiments.SampleWorkload(rng, 21, db, ops)
	if err != nil {
		t.Fatal(err)
	}

	checkIdentical(t, f.router, refSvc, coll, items)
	for round := 0; round < 3; round++ {
		delta, err := experiments.ChurnDelta("poi", round)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.router.ApplyDelta(ctx, coll, delta); err != nil {
			t.Fatalf("round %d: router delta: %v", round, err)
		}
		if _, err := refSvc.ApplyDelta(ctx, coll, delta); err != nil {
			t.Fatalf("round %d: reference delta: %v", round, err)
		}
		checkConverged(t, f, ref, coll)
		checkIdentical(t, f.router, refSvc, coll, items)
	}

	st := f.router.RouterStats()
	if st.FanoutSolves == 0 {
		t.Fatal("no sharded solves were fanned out")
	}
	if st.MergedPartials < 3*st.FanoutSolves {
		t.Fatalf("merged %d partials across %d fan-outs, want 3 each", st.MergedPartials, st.FanoutSolves)
	}
	if st.ReplicaFingerprintMismatches != 0 {
		t.Fatalf("%d replica fingerprint mismatches", st.ReplicaFingerprintMismatches)
	}
	if st.ReplicaSyncs == 0 {
		t.Fatal("no replica syncs recorded")
	}
}

// TestFleetReplicaKillCatchUp kills one replica, mutates the collection
// past it, revives it, and requires the next write to pull it back in
// sync through the WAL record stream — not a snapshot re-transfer —
// with the content fingerprint check passing.
func TestFleetReplicaKillCatchUp(t *testing.T) {
	const coll = "travel"
	f := newFleet(t, 3, 3, nil)
	ref := serve.NewServer(serve.Options{})
	refSvc := ref.Service()
	ctx := context.Background()

	db := experiments.WorkloadDB(30)
	if _, err := f.router.PutCollection(ctx, coll, db); err != nil {
		t.Fatal(err)
	}
	if _, err := refSvc.PutCollection(ctx, coll, db); err != nil {
		t.Fatal(err)
	}
	apply := func(i int) {
		t.Helper()
		delta, err := experiments.ChurnDelta("poi", i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.router.ApplyDelta(ctx, coll, delta); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if _, err := refSvc.ApplyDelta(ctx, coll, delta); err != nil {
			t.Fatal(err)
		}
	}
	// Two live deltas first, so the victim has a real WAL cursor to
	// resume from.
	apply(0)
	apply(1)
	checkConverged(t, f, ref, coll)

	owners := f.router.owners(coll)
	victim := f.gateIndex(t, owners[1])
	before := f.router.RouterStats()

	f.gates[victim].down.Store(true)
	for i := 2; i < 5; i++ {
		apply(i)
	}
	mid := f.router.RouterStats()
	if mid.Nodes[victim].Failures == before.Nodes[victim].Failures {
		t.Fatal("dead replica was never marked failed")
	}
	// Reads keep working around the dead replica.
	rng := rand.New(rand.NewSource(3))
	items, err := experiments.SampleWorkload(rng, 4, db, []string{"topk", "count"})
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, f.router, refSvc, coll, items)

	// Revive; the next write must catch the replica up from the WAL
	// stream: records only, no snapshot transfer, fingerprints equal.
	f.gates[victim].down.Store(false)
	apply(5)
	checkConverged(t, f, ref, coll)
	after := f.router.RouterStats()
	if after.ReplicaSnapshots != mid.ReplicaSnapshots {
		t.Fatalf("catch-up fell back to a snapshot transfer (%d -> %d)", mid.ReplicaSnapshots, after.ReplicaSnapshots)
	}
	// The victim missed deltas 2..5: four records over its cursor.
	if got := after.ReplicaRecords - mid.ReplicaRecords; got < 4 {
		t.Fatalf("catch-up applied %d WAL records, want >= 4", got)
	}
	if after.ReplicaFingerprintMismatches != 0 {
		t.Fatalf("%d replica fingerprint mismatches", after.ReplicaFingerprintMismatches)
	}
}

// TestFleetPrimaryFailover kills a collection's home primary and
// requires reads and writes to fail over to the replicas — and the
// primary to be re-synchronized when it comes back.
func TestFleetPrimaryFailover(t *testing.T) {
	const coll = "travel"
	f := newFleet(t, 3, 3, nil)
	ref := serve.NewServer(serve.Options{})
	refSvc := ref.Service()
	ctx := context.Background()

	db := experiments.WorkloadDB(30)
	if _, err := f.router.PutCollection(ctx, coll, db); err != nil {
		t.Fatal(err)
	}
	if _, err := refSvc.PutCollection(ctx, coll, db); err != nil {
		t.Fatal(err)
	}

	owners := f.router.owners(coll)
	primary := f.gateIndex(t, owners[0])
	f.gates[primary].down.Store(true)

	rng := rand.New(rand.NewSource(5))
	items, err := experiments.SampleWorkload(rng, 4, db, []string{"topk", "decide"})
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, f.router, refSvc, coll, items)
	if st := f.router.RouterStats(); st.Failovers == 0 {
		t.Fatal("no failovers recorded with the primary dead")
	}

	// Writes land on the acting primary and replicate to the healthy
	// replica.
	delta, err := experiments.ChurnDelta("poi", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.router.ApplyDelta(ctx, coll, delta); err != nil {
		t.Fatalf("delta with primary dead: %v", err)
	}
	if _, err := refSvc.ApplyDelta(ctx, coll, delta); err != nil {
		t.Fatal(err)
	}

	// Revive the primary; the next write pulls it back in sync.
	f.gates[primary].down.Store(false)
	delta2, err := experiments.ChurnDelta("poi", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.router.ApplyDelta(ctx, coll, delta2); err != nil {
		t.Fatal(err)
	}
	if _, err := refSvc.ApplyDelta(ctx, coll, delta2); err != nil {
		t.Fatal(err)
	}
	checkConverged(t, f, ref, coll)
	if st := f.router.RouterStats(); st.ReplicaFingerprintMismatches != 0 {
		t.Fatalf("%d replica fingerprint mismatches", st.ReplicaFingerprintMismatches)
	}
}

// TestRendezvousStability pins the minimal-disruption property: when a
// node leaves, only the collections it owned move; every other owner
// list is unchanged. Also sanity-checks the spread — every node is
// primary for some collection.
func TestRendezvousStability(t *testing.T) {
	mk := func(names ...string) *Router {
		var nodes []Node
		for _, n := range names {
			nodes = append(nodes, Node{Name: n, Svc: &gate{}})
		}
		r, err := New(Options{Nodes: nodes, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full := mk("alpha", "beta", "gamma")
	less := mk("alpha", "beta")

	primaries := map[string]int{}
	for i := 0; i < 60; i++ {
		coll := "collection-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		fo := full.owners(coll)
		primaries[fo[0].name]++
		touched := false
		for _, n := range fo {
			if n.name == "gamma" {
				touched = true
			}
		}
		if touched {
			continue
		}
		lo := less.owners(coll)
		for j := range fo {
			if fo[j].name != lo[j].name {
				t.Fatalf("collection %q owners moved without gamma involved: %s -> %s",
					coll, fo[j].name, lo[j].name)
			}
		}
	}
	for _, n := range []string{"alpha", "beta", "gamma"} {
		if primaries[n] == 0 {
			t.Fatalf("node %s is primary for no collection (placement skew): %v", n, primaries)
		}
	}
}

// TestRouterMetrics spot-checks the pkgrecr_ exposition: fleet gauges,
// per-node health series, and the coordination counters.
func TestRouterMetrics(t *testing.T) {
	const coll = "travel"
	f := newFleet(t, 3, 3, map[string]int{coll: 3})
	ctx := context.Background()
	db := experiments.WorkloadDB(20)
	if _, err := f.router.PutCollection(ctx, coll, db); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	items, err := experiments.SampleWorkload(rng, 2, db, []string{"topk"})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range items {
		if _, err := f.router.Solve(ctx, itemRequest(coll, w)); err != nil {
			t.Fatal(err)
		}
	}
	text := f.router.RenderMetrics()
	for _, want := range []string{
		"pkgrecr_nodes 3",
		"pkgrecr_nodes_down 0",
		`pkgrecr_node_up{node="a"} 1`,
		"pkgrecr_fanout_solves_total 2",
		"pkgrecr_merged_partials_total 6",
		"pkgrecr_replica_fingerprint_mismatches_total 0",
		"pkgrecr_replica_seq{",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestRouterAggregateStats checks the fleet Stats aggregation: node
// counters sum, and the hit rate is recomputed over the summed lookups.
func TestRouterAggregateStats(t *testing.T) {
	const coll = "travel"
	f := newFleet(t, 2, 2, nil)
	ctx := context.Background()
	db := experiments.WorkloadDB(20)
	if _, err := f.router.PutCollection(ctx, coll, db); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	items, err := experiments.SampleWorkload(rng, 3, db, []string{"count"})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range items {
		if _, err := f.router.Solve(ctx, itemRequest(coll, w)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := f.router.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 {
		t.Fatal("aggregated stats count no requests")
	}
	// Both nodes hold the replicated collection, and each counts it.
	if st.Collections != 2 {
		t.Fatalf("aggregated Collections = %d, want 2 (one per holding node)", st.Collections)
	}
}

// The rest of the router's Service surface: batch routing, collection
// reads, the union listing, cache flush, removal (with cursor cleanup)
// and health — pinned against a single-node reference where an answer
// exists to compare.
func TestRouterServiceSurface(t *testing.T) {
	ctx := context.Background()
	f := newFleet(t, 3, 2, nil)
	db := experiments.WorkloadDB(30)
	for _, coll := range []string{"one", "two"} {
		if _, err := f.router.PutCollection(ctx, coll, db); err != nil {
			t.Fatal(err)
		}
	}
	ref := serve.NewServer(serve.Options{})
	defer ref.Close()
	ref.SetCollection("one", db)

	// A batch routes whole to one owner and answers like a single node.
	rng := rand.New(rand.NewSource(7))
	items, err := experiments.SampleWorkload(rng, 4, db, experiments.WorkloadOps)
	if err != nil {
		t.Fatal(err)
	}
	breq := serve.BatchRequest{Collection: "one"}
	for _, w := range items {
		breq.Items = append(breq.Items, serve.BatchItem{
			Op: w.Op, Spec: w.Spec, Selection: w.Selection,
			Relax: w.Relax, MaxSuggestions: w.MaxSuggestions,
		})
	}
	got, err := f.router.SolveBatch(ctx, breq)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.SolveBatch(ctx, breq)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != len(want.Items) {
		t.Fatalf("batch answered %d items, want %d", len(got.Items), len(want.Items))
	}
	for i := range got.Items {
		gj, _ := json.Marshal(got.Items[i].Result)
		wj, _ := json.Marshal(want.Items[i].Result)
		if string(gj) != string(wj) || got.Items[i].Error != want.Items[i].Error {
			t.Fatalf("batch item %d diverges from single node:\nrouter: %s (err %q)\nsingle: %s (err %q)",
				i, gj, got.Items[i].Error, wj, want.Items[i].Error)
		}
	}

	info, err := f.router.GetCollection(ctx, "one")
	if err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != db.Fingerprint() {
		t.Fatalf("routed GetCollection fingerprint %s, want %s", info.Fingerprint, db.Fingerprint())
	}
	if _, err := f.router.GetCollection(ctx, "absent"); serve.ErrorCode(err) != serve.CodeNotFound {
		t.Fatalf("absent collection: got %v", err)
	}

	// Collections is the union over the fleet, one entry per collection.
	infos, err := f.router.Collections(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, in := range infos {
		names = append(names, in.Name)
	}
	if len(names) != 2 || names[0] != "one" || names[1] != "two" {
		t.Fatalf("union listing = %v, want [one two]", names)
	}

	if err := f.router.FlushCache(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.router.Health(ctx); err != nil {
		t.Fatal(err)
	}

	// Removal drops every owner's copy and the replication cursors.
	if err := f.router.RemoveCollection(ctx, "two"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.router.GetCollection(ctx, "two"); serve.ErrorCode(err) != serve.CodeNotFound {
		t.Fatalf("removed collection still served: %v", err)
	}
	if err := f.router.RemoveCollection(ctx, "two"); serve.ErrorCode(err) != serve.CodeNotFound {
		t.Fatalf("double removal: got %v", err)
	}
	for _, cur := range f.router.RouterStats().Cursors {
		if cur.Collection == "two" {
			t.Fatalf("removal left replication cursor %+v", cur)
		}
	}

	// With every node down the router is honest about it.
	for _, g := range f.gates {
		g.down.Store(true)
	}
	if err := f.router.Health(ctx); serve.ErrorCode(err) != serve.CodeUnavailable {
		t.Fatalf("all-down health: got %v", err)
	}
	if _, err := f.router.Collections(ctx); serve.ErrorCode(err) != serve.CodeUnavailable {
		t.Fatalf("all-down listing: got %v", err)
	}
}

// syncStall holds one replica's next record replay — the replica half
// of a write — until release is closed, and counts the shard solves the
// fleet serves meanwhile.
type syncStall struct {
	replica string // node whose ApplyDelta stalls once armed
	armed   atomic.Bool
	stalled atomic.Bool
	entered chan struct{}
	release chan struct{}
	solves  atomic.Int64 // shard solves served while stalled
}

// stallNode puts a gated node behind a shared syncStall.
type stallNode struct {
	*gate
	name string
	s    *syncStall
}

func (n *stallNode) ApplyDelta(ctx context.Context, name string, delta relation.Delta) (serve.DeltaInfo, error) {
	if n.name == n.s.replica && n.s.armed.CompareAndSwap(true, false) {
		n.s.stalled.Store(true)
		defer n.s.stalled.Store(false)
		close(n.s.entered)
		<-n.s.release
	}
	return n.gate.ApplyDelta(ctx, name, delta)
}

func (n *stallNode) Solve(ctx context.Context, req serve.Request) (*serve.Response, error) {
	if n.s.stalled.Load() {
		n.s.solves.Add(1)
	}
	return n.gate.Solve(ctx, req)
}

// TestFanoutRetryWaitsForReplicaSync is the regression test for the
// straddle flake: a sharded solve issued while a delta has reached the
// primary but not yet the replica sees skewed partials. Its retry must
// wait for the write to finish syncing — no shard solve beyond the
// first fan-out's may run while the replica is stalled — and then answer
// on the settled content exactly as a single node does. Retrying at
// once straddled the same write on every attempt.
func TestFanoutRetryWaitsForReplicaSync(t *testing.T) {
	const coll = "fleet"
	ctx := context.Background()
	f := newFleet(t, 2, 2, nil)
	stall := &syncStall{entered: make(chan struct{}), release: make(chan struct{})}
	var nodes []Node
	for i, g := range f.gates {
		nodes = append(nodes, Node{Name: f.names[i], Svc: &stallNode{gate: g, name: f.names[i], s: stall}})
	}
	router, err := New(Options{Nodes: nodes, Replicas: 2, ShardSolves: map[string]int{coll: 2}})
	if err != nil {
		t.Fatal(err)
	}
	db := experiments.WorkloadDB(30)
	if _, err := router.PutCollection(ctx, coll, db); err != nil {
		t.Fatal(err)
	}
	ref := serve.NewServer(serve.Options{})
	defer ref.Close()
	ref.SetCollection(coll, db)
	items, err := experiments.SampleWorkload(rand.New(rand.NewSource(3)), 1, db, []string{"count"})
	if err != nil {
		t.Fatal(err)
	}
	req := itemRequest(coll, items[0])

	// A first delta moves the replica's cursor past the install, so the
	// next sync replays records (ApplyDelta) instead of a snapshot.
	for round := 0; round < 2; round++ {
		delta, err := experiments.ChurnDelta("poi", round)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			if _, err := router.ApplyDelta(ctx, coll, delta); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ref.Service().ApplyDelta(ctx, coll, delta); err != nil {
			t.Fatal(err)
		}
	}

	// The second delta lands on the primary first and then syncs the
	// replica, which stalls with the old content while the write holds
	// the collection's writer lock.
	stall.replica = ordered(router.owners(coll))[1].name
	stall.armed.Store(true)
	delta, err := experiments.ChurnDelta("poi", 1)
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := router.ApplyDelta(ctx, coll, delta)
		wrote <- err
	}()
	<-stall.entered

	type solved struct {
		resp *serve.Response
		err  error
	}
	done := make(chan solved, 1)
	go func() {
		resp, err := router.Solve(ctx, req)
		done <- solved{resp, err}
	}()
	// The first fan-out straddles the write; wait until it has counted
	// its retry, then let the replica sync finish.
	for router.RouterStats().VersionRetries == 0 {
		select {
		case got := <-done:
			t.Fatalf("solve returned before any retry: %+v", got)
		case <-time.After(time.Millisecond):
		}
	}
	close(stall.release)
	if err := <-wrote; err != nil {
		t.Fatalf("delta: %v", err)
	}
	got := <-done
	if got.err != nil {
		t.Fatalf("fan-out across a syncing write failed: %v", got.err)
	}
	if n := stall.solves.Load(); n != 2 {
		t.Fatalf("%d shard solves ran while the replica sync was stalled, want the first fan-out's 2: a retry straddled the write", n)
	}

	want, err := ref.Service().Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got.resp.Result)
	wj, _ := json.Marshal(want.Result)
	if string(gj) != string(wj) || got.resp.Fingerprint != want.Fingerprint {
		t.Fatalf("fan-out answer diverged from the single node after the write:\nfleet:  %s (%s)\nsingle: %s (%s)",
			gj, got.resp.Fingerprint, wj, want.Fingerprint)
	}
	if st := router.RouterStats(); st.VersionRetries < 1 || st.FanoutSolves != 1 {
		t.Fatalf("router stats: %+v, want versionRetries >= 1 and one fan-out", st)
	}
}
