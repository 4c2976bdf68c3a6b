package serve

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/relation"
)

// verifyAgainstLibrary re-solves req with the library solver over db —
// the exact snapshot the response claims to answer for — and reports any
// disagreement. It is the soundness oracle for the repair pipeline:
// whether the server served the answer fresh, from a rekeyed entry, or
// from a patched one, it must match a from-scratch solve.
func verifyAgainstLibrary(req Request, resp *Response, db *relation.Database) error {
	prob, err := req.Spec.Build(db)
	if err != nil {
		return err
	}
	switch req.Op {
	case OpCount:
		want, err := prob.CountValid(req.Spec.Bound)
		if err != nil {
			return err
		}
		if *resp.Count != want {
			return fmt.Errorf("count %d, library says %d at version %d", *resp.Count, want, resp.Version)
		}
	case OpExists:
		n, err := prob.CountValid(req.Spec.Bound)
		if err != nil {
			return err
		}
		if want := n >= int64(prob.K); resp.OK != want {
			return fmt.Errorf("exists=%v, library says %v at version %d", resp.OK, want, resp.Version)
		}
	case OpMaxBound:
		b, ok, err := prob.MaxBound()
		if err != nil {
			return err
		}
		if ok != resp.OK {
			return fmt.Errorf("maxbound ok=%v, library says %v at version %d", resp.OK, ok, resp.Version)
		}
		if ok && math.Abs(*resp.Bound-b) > 1e-9 {
			return fmt.Errorf("maxbound %g, library says %g at version %d", *resp.Bound, b, resp.Version)
		}
	case OpTopK:
		sel, ok, err := prob.FindTopK()
		if err != nil {
			return err
		}
		if ok != resp.OK {
			return fmt.Errorf("topk ok=%v, library says %v at version %d", resp.OK, ok, resp.Version)
		}
		if !ok {
			return nil
		}
		if len(sel) != len(resp.Packages) {
			return fmt.Errorf("topk size %d, library says %d at version %d", len(resp.Packages), len(sel), resp.Version)
		}
		// Selections may differ in ties; the rating multiset may not.
		got := make([]float64, len(resp.Packages))
		want := make([]float64, len(sel))
		for i := range sel {
			got[i] = resp.Packages[i].Val
			want[i] = prob.Val.Eval(sel[i])
		}
		sort.Float64s(got)
		sort.Float64s(want)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return fmt.Errorf("topk ratings %v, library says %v at version %d", got, want, resp.Version)
			}
		}
	default:
		return fmt.Errorf("no library oracle for op %q", req.Op)
	}
	return nil
}

// The repair-soundness gate: every answer served across the three-tier
// churn stream (experiments.RepairChurnDelta — rekey, patch, re-solve
// mutations in rotation) must equal a fresh library solve over the exact
// database version the response reports. Phase one drives the stream
// deterministically against a warm cache so each repair tier provably
// fires (pinned by the repair counters); phase two streams deltas from a
// writer goroutine against concurrent readers, which under -race also
// proves the repair pipeline's bookkeeping is data-race free.
func TestRepairSoundnessUnderChurn(t *testing.T) {
	base := experiments.WorkloadDB(24)
	s := NewServer(Options{MaxConcurrent: 8})
	info := s.SetCollection("live", base)

	// versions mirrors the server's database content per version. The
	// writer stores the mirror before installing the version, so readers
	// can never observe a version without its mirror.
	var versions sync.Map
	versions.Store(info.Version, base)

	requests := []Request{
		{Collection: "live", Op: OpTopK, Spec: poiSpec(240)},
		{Collection: "live", Op: OpCount, Spec: poiSpec(300)},
		{Collection: "live", Op: OpExists, Spec: poiSpec(260)},
		{Collection: "live", Op: OpMaxBound, Spec: poiSpec(280)},
	}
	solveAll := func(tag string, db *relation.Database) {
		t.Helper()
		for _, req := range requests {
			resp := mustSolve(t, s, req)
			if err := verifyAgainstLibrary(req, resp, db); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
		}
	}

	// Phase 1: deterministic tier coverage. Warm the cache, then walk one
	// full rotation of the churn stream (rekey, patch, re-solve — each as
	// an upsert and the matching delete), re-solving and verifying after
	// every delta so the cache is warm again before the next one.
	cur := base
	version := info.Version
	solveAll("warmup", cur)
	for i := 0; i < 6; i++ {
		d := experiments.RepairChurnDelta(i)
		res, err := cur.ApplyDelta(d)
		if err != nil {
			t.Fatalf("mirror delta %d: %v", i, err)
		}
		cur, version = res.DB, version+1
		versions.Store(version, cur)
		if _, err := s.MutateCollection("live", d); err != nil {
			t.Fatalf("MutateCollection %d: %v", i, err)
		}
		solveAll(fmt.Sprintf("after delta %d", i), cur)
	}
	st := s.Stats()
	if st.RepairRekeyed == 0 || st.RepairPatched == 0 || st.RepairResolved == 0 {
		t.Fatalf("churn rotation left a repair tier unexercised: rekeyed=%d patched=%d resolved=%d",
			st.RepairRekeyed, st.RepairPatched, st.RepairResolved)
	}

	// Phase 2: the same stream from a writer goroutine against concurrent
	// readers. Readers verify each response against the mirror of the
	// version it reports; -race checks the repair bookkeeping itself.
	const deltas = 24
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mcur, mversion := cur, version
		for i := 6; i < 6+deltas; i++ {
			d := experiments.RepairChurnDelta(i)
			res, err := mcur.ApplyDelta(d)
			if err != nil {
				t.Errorf("mirror delta %d: %v", i, err)
				return
			}
			mcur, mversion = res.DB, mversion+1
			versions.Store(mversion, mcur)
			dinfo, err := s.MutateCollection("live", d)
			if err != nil {
				t.Errorf("MutateCollection %d: %v", i, err)
				return
			}
			if dinfo.Version != mversion {
				t.Errorf("installed version %d, want %d", dinfo.Version, mversion)
				return
			}
		}
	}()
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				req := requests[(r+i)%len(requests)]
				resp, err := s.Solve(context.Background(), req)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				dbAny, ok := versions.Load(resp.Version)
				if !ok {
					t.Errorf("reader %d: response reports unknown version %d", r, resp.Version)
					return
				}
				if err := verifyAgainstLibrary(req, resp, dbAny.(*relation.Database)); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestSecondChanceHitNamesAnsweringVersion installs a delta between a
// request's validation and its cache lookup. The lookup misses under the
// validated snapshot's key and hits the entry repair moved to the new
// version's key; the response must name that version and fingerprint,
// and its answer must equal the library's on that version. In a batch the
// item (and its deduplicated twin) carries that version itself while the
// batch still names its snapshot; an item answered on the snapshot
// carries none.
func TestSecondChanceHitNamesAnsweringVersion(t *testing.T) {
	for _, batch := range []bool{false, true} {
		base := experiments.WorkloadDB(24)
		s := NewServer(Options{})
		old := s.SetCollection("live", base)
		req := Request{Collection: "live", Op: OpCount, Spec: poiSpec(300)}
		item := BatchItem{Op: req.Op, Spec: req.Spec}
		breq := BatchRequest{Collection: "live", Items: []BatchItem{item, item}}
		if batch {
			warm := mustBatch(t, s, breq)
			for i, it := range warm.Items {
				if it.Version != 0 {
					t.Fatalf("item %d answered on the batch snapshot carries version %d", i, it.Version)
				}
			}
		} else {
			mustSolve(t, s, req)
		}

		// A delta outside the query's filter: the entry is rekeyed to the
		// new version's key, not dropped.
		d := experiments.RepairChurnDelta(0)
		res, err := base.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		var once sync.Once
		s.lookupHook = func() {
			once.Do(func() {
				if _, err := s.MutateCollection("live", d); err != nil {
					t.Error(err)
				}
			})
		}
		var got *Response
		if batch {
			bresp := mustBatch(t, s, breq)
			if bresp.Version != old.Version {
				t.Fatalf("batch names version %d, want its snapshot %d", bresp.Version, old.Version)
			}
			for i, it := range bresp.Items {
				if !it.Cached || it.Version != old.Version+1 {
					t.Fatalf("item %d: cached=%v version=%d, want a cache hit on version %d", i, it.Cached, it.Version, old.Version+1)
				}
			}
			first := bresp.Items[0]
			got = &Response{Result: *first.Result, Version: first.Version}
		} else {
			got = mustSolve(t, s, req)
			cur, _ := s.Collection("live")
			if !got.Cached || got.Version != cur.Version || got.Fingerprint != cur.Fingerprint {
				t.Fatalf("second-chance hit: cached=%v version=%d fingerprint=%s, want version %d fingerprint %s",
					got.Cached, got.Version, got.Fingerprint, cur.Version, cur.Fingerprint)
			}
		}
		if st := s.Stats(); st.RepairRekeyed == 0 {
			t.Fatalf("the delta rekeyed no entry: %+v", st)
		}
		if err := verifyAgainstLibrary(req, got, res.DB); err != nil {
			t.Fatalf("batch=%v: %v", batch, err)
		}
	}
}
