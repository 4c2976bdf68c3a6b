package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/spec"
)

func countItem(k int, bound float64) BatchItem {
	ps := travelSpec(k)
	ps.Bound = bound
	return BatchItem{Op: OpCount, Spec: ps}
}

func mustBatch(t *testing.T, s *Server, breq BatchRequest) *BatchResponse {
	t.Helper()
	resp, err := s.SolveBatch(context.Background(), breq)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	return resp
}

// An empty batch over a known collection is a valid no-op; an unknown
// collection is the one batch-level failure.
func TestBatchEmptyAndUnknownCollection(t *testing.T) {
	s := travelServer(t, Options{}, 30, 24)
	resp := mustBatch(t, s, BatchRequest{Collection: "travel"})
	if len(resp.Items) != 0 || resp.Solves != 0 || resp.Errors != 0 {
		t.Fatalf("empty batch: %+v", resp)
	}
	if resp.Collection != "travel" || resp.Version != 1 {
		t.Fatalf("empty batch lost the collection identity: %+v", resp)
	}
	_, err := s.SolveBatch(context.Background(), BatchRequest{Collection: "nope",
		Items: []BatchItem{countItem(3, -100)}})
	var nf *NotFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("unknown collection: got %v, want NotFoundError", err)
	}
}

// One malformed item must not fail the batch: its slot carries the error,
// every other item solves normally.
func TestBatchItemErrorIsolation(t *testing.T) {
	s := travelServer(t, Options{}, 30, 24)
	bad := countItem(3, -100)
	bad.Spec.Query = "this is not a query"
	resp := mustBatch(t, s, BatchRequest{Collection: "travel", Items: []BatchItem{
		{Op: "frobnicate", Spec: travelSpec(1)},
		bad,
		countItem(3, -100),
	}})
	if resp.Items[0].Error == "" || !strings.Contains(resp.Items[0].Error, "unknown op") {
		t.Fatalf("bad op item: %+v", resp.Items[0])
	}
	if resp.Items[1].Error == "" || resp.Items[1].Result != nil {
		t.Fatalf("bad query item: %+v", resp.Items[1])
	}
	if resp.Items[2].Error != "" || resp.Items[2].Result == nil || resp.Items[2].Result.Count == nil {
		t.Fatalf("good item did not survive its bad neighbours: %+v", resp.Items[2])
	}
	if resp.Errors != 2 || resp.Solves != 1 {
		t.Fatalf("batch tally: %+v", resp)
	}
}

// N identical sub-requests must collapse onto exactly one engine run. The
// engine-node accounting is deterministic, so a batch of duplicates and a
// single solve of the same request visit identical node counts.
func TestBatchDuplicatesCoalesceToOneSolve(t *testing.T) {
	const n = 6
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = countItem(3, -100)
	}

	s := travelServer(t, Options{}, 30, 24)
	resp := mustBatch(t, s, BatchRequest{Collection: "travel", Items: items})
	if resp.Solves != 1 || resp.Deduped != n-1 || resp.Errors != 0 {
		t.Fatalf("duplicate batch tally: %+v", resp)
	}
	for i, ir := range resp.Items {
		if ir.Result == nil || *ir.Result.Count != *resp.Items[0].Result.Count {
			t.Fatalf("item %d diverged: %+v", i, ir)
		}
		if (i > 0) != ir.Deduped {
			t.Fatalf("item %d deduped flag: %+v", i, ir)
		}
	}
	st := s.Stats()
	if st.Batches != 1 || st.BatchItems != n || st.BatchDeduped != n-1 {
		t.Fatalf("batch stats: %+v", st)
	}
	if st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("only the lead item may consult the cache: %+v", st)
	}

	// The engine did exactly a single solve's work.
	single := travelServer(t, Options{}, 30, 24)
	mustSolve(t, single, Request{Collection: "travel", Op: OpCount, Spec: items[0].Spec})
	if got, want := st.EngineNodes, single.Stats().EngineNodes; got != want {
		t.Fatalf("batch of %d duplicates visited %d engine nodes, single solve visits %d", n, got, want)
	}

	// A repeat of the same batch is pure cache: the lead hits, the rest
	// dedup, no new solve.
	resp2 := mustBatch(t, s, BatchRequest{Collection: "travel", Items: items})
	if resp2.Solves != 0 || resp2.CacheHits != 1 || resp2.Deduped != n-1 {
		t.Fatalf("repeat batch tally: %+v", resp2)
	}
	if got := s.Stats().EngineNodes; got != st.EngineNodes {
		t.Fatalf("repeat batch re-ran the engine: %d -> %d nodes", st.EngineNodes, got)
	}
}

// The whole-batch deadline expires mid-flight: the astronomically large
// item times out, the cheap one still answers — error isolation holds for
// runtime failures, not just validation. The huge item's loose budget and
// val floor leave almost nothing to prune: its full count runs for seconds
// (about 5 s on a 2-vCPU x86 VM), so it cannot finish inside the deadline
// on a faster engine or machine.
func TestBatchDeadlineMidFlight(t *testing.T) {
	s := travelServer(t, Options{MaxConcurrent: 4}, 120, 60)
	huge := travelSpec(3)
	huge.MaxPkgSize = 6
	huge.Budget = 2000
	huge.Bound = -1e9
	resp := mustBatch(t, s, BatchRequest{
		Collection: "travel",
		TimeoutMS:  150,
		Items: []BatchItem{
			countItem(3, -100),
			{Op: OpCount, Spec: huge},
		},
	})
	if resp.Items[0].Error != "" || resp.Items[0].Result == nil {
		t.Fatalf("cheap item did not survive the deadline: %+v", resp.Items[0])
	}
	if !strings.Contains(resp.Items[1].Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("huge item: got %q, want a deadline error", resp.Items[1].Error)
	}
	if resp.Errors != 1 || resp.Solves != 1 {
		t.Fatalf("deadline batch tally: %+v", resp)
	}
}

// Items with equal problem specs but different operations share one
// prepared Problem; the answers must match the library exactly (the spec
// is built once, candidates evaluated once, bound tables shared).
func TestBatchSharedProblemAcrossOps(t *testing.T) {
	db := gen.Travel(7, 30, 24)
	s := NewServer(Options{})
	s.SetCollection("travel", db)
	ps := travelSpec(2)
	ps.Bound = -100
	resp := mustBatch(t, s, BatchRequest{Collection: "travel", Items: []BatchItem{
		{Op: OpTopK, Spec: ps},
		{Op: OpCount, Spec: ps},
		{Op: OpMaxBound, Spec: ps},
		{Op: OpExists, Spec: ps},
	}})
	if resp.Errors != 0 || resp.Solves != 4 {
		t.Fatalf("mixed-op batch tally: %+v", resp)
	}

	prob, err := ps.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok, err := prob.FindTopK()
	if err != nil || !ok {
		t.Fatalf("library FindTopK: ok=%v err=%v", ok, err)
	}
	if got := resp.Items[0].Result.Packages; len(got) != len(sel) {
		t.Fatalf("topk: %d packages, library found %d", len(got), len(sel))
	}
	cnt, err := prob.CountValid(ps.Bound)
	if err != nil {
		t.Fatal(err)
	}
	if got := *resp.Items[1].Result.Count; got != cnt {
		t.Fatalf("count: %d, library counts %d", got, cnt)
	}
	b, ok, err := prob.MaxBound()
	if err != nil || !ok {
		t.Fatalf("library MaxBound: ok=%v err=%v", ok, err)
	}
	if got := *resp.Items[2].Result.Bound; got != b {
		t.Fatalf("maxbound: %g, library says %g", got, b)
	}
	if !resp.Items[3].Result.OK {
		t.Fatal("exists: daemon says no, library counted valid packages")
	}
}

// One /v1/batch call must answer exactly like N sequential /v1/solve
// calls, over HTTP, item by item — batching is an execution strategy, not
// a semantics change.
func TestHTTPBatchEquivalentToSequentialSolves(t *testing.T) {
	db := gen.Travel(7, 40, 30)
	newTS := func() (*Server, *Client, func()) {
		s := NewServer(Options{})
		s.SetCollection("travel", db)
		ts := httptest.NewServer(s.Handler())
		return s, NewClient(ts.URL), ts.Close
	}

	items := []BatchItem{
		{Op: OpTopK, Spec: travelSpec(2)},
		{Op: OpTopK, Spec: travelSpec(3)},
		countItem(3, -50),
		countItem(3, -100),
		countItem(3, -100), // duplicate: deduped in the batch, cached in the sequence
		{Op: OpMaxBound, Spec: travelSpec(2)},
	}

	_, seqClient, closeSeq := newTS()
	defer closeSeq()
	want := make([]string, len(items))
	for i, it := range items {
		resp, err := seqClient.Solve(context.Background(), it.Request("travel"))
		if err != nil {
			t.Fatalf("sequential solve %d: %v", i, err)
		}
		want[i] = mustJSON(t, resp.Result)
	}

	_, batchClient, closeBatch := newTS()
	defer closeBatch()
	bresp, err := batchClient.SolveBatch(context.Background(),
		BatchRequest{Collection: "travel", Items: items})
	if err != nil {
		t.Fatalf("SolveBatch over HTTP: %v", err)
	}
	if len(bresp.Items) != len(items) {
		t.Fatalf("batch returned %d items, want %d", len(bresp.Items), len(items))
	}
	for i, ir := range bresp.Items {
		if ir.Error != "" {
			t.Fatalf("batch item %d failed: %s", i, ir.Error)
		}
		if got := mustJSON(t, *ir.Result); got != want[i] {
			t.Errorf("item %d diverges from sequential solve:\n got %s\nwant %s", i, got, want[i])
		}
	}
	if bresp.Deduped != 1 {
		t.Fatalf("duplicate item not deduplicated: %+v", bresp)
	}
}

// A spec whose query parses but cannot be evaluated (unknown relation)
// fails at Prepare inside the pool; the failure stays item-local, and a
// duplicate of the failed item inherits the error without counting as a
// successful dedup — the batch tallies and /v1/stats must agree.
func TestBatchPrepareErrorIsolated(t *testing.T) {
	s := travelServer(t, Options{}, 30, 24)
	ghost := spec.ProblemSpec{
		Query: "RQ(x) :- ghost(x).",
		Cost:  spec.AggSpec{Kind: "count"},
		Val:   spec.AggSpec{Kind: "count"},
		K:     1, Budget: 1,
	}
	resp := mustBatch(t, s, BatchRequest{Collection: "travel", Items: []BatchItem{
		{Op: OpCount, Spec: ghost},
		countItem(3, -100),
		{Op: OpCount, Spec: ghost}, // duplicate of the failing lead
	}})
	if resp.Items[0].Error == "" {
		t.Fatalf("unknown-relation item succeeded: %+v", resp.Items[0])
	}
	if resp.Items[1].Error != "" || resp.Items[1].Result == nil {
		t.Fatalf("good item failed: %+v", resp.Items[1])
	}
	if resp.Items[2].Error != resp.Items[0].Error || resp.Items[2].Deduped {
		t.Fatalf("duplicate of failed lead: %+v", resp.Items[2])
	}
	if resp.Errors != 2 || resp.Deduped != 0 {
		t.Fatalf("failed-dedup tally: %+v", resp)
	}
	if st := s.Stats(); st.BatchDeduped != 0 || st.Errors != 2 {
		t.Fatalf("failed-dedup stats: %+v", st)
	}
}

// A NoCache item never deduplicates onto a cache-eligible twin (it would
// be served a cached result it asked to bypass), and a caching item never
// collapses onto a NoCache lead (whose result is not stored).
func TestBatchNoCacheItemsDedupSeparately(t *testing.T) {
	s := travelServer(t, Options{}, 30, 24)
	item := countItem(3, -100)
	// Prime the cache with the item.
	mustSolve(t, s, item.Request("travel"))

	noCache := item
	noCache.NoCache = true
	resp := mustBatch(t, s, BatchRequest{Collection: "travel", Items: []BatchItem{
		item, noCache, noCache,
	}})
	if !resp.Items[0].Cached {
		t.Fatalf("cache-eligible item missed the primed cache: %+v", resp.Items[0])
	}
	if resp.Items[1].Cached || resp.Items[1].Deduped || resp.Items[1].Result == nil {
		t.Fatalf("noCache item was served through the cache: %+v", resp.Items[1])
	}
	if !resp.Items[2].Deduped {
		t.Fatalf("noCache twins must still dedup among themselves: %+v", resp.Items[2])
	}
	if resp.CacheHits != 1 || resp.Solves != 1 || resp.Deduped != 1 {
		t.Fatalf("noCache batch tally: %+v", resp)
	}
}
