package core

import (
	"math"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// provProblem is a filtered selection over item: candidates are the items
// with price < 25, so deltas can land inside or outside the candidate set.
func provProblem() *Problem {
	db := itemsDB()
	q := query.NewCQ("RQ",
		[]query.Term{query.V("id"), query.V("price"), query.V("rating")},
		query.Rel("item", query.V("id"), query.V("price"), query.V("rating")),
		query.Cmp(query.V("price"), query.OpLt, query.CI(25)))
	return &Problem{
		DB:              db,
		Q:               q,
		Cost:            SumAttr(1).WithMonotone(),
		Val:             SumAttr(2),
		Budget:          100,
		K:               1,
		MaxPkgSize:      2,
		TrackProvenance: true,
	}
}

func TestProvenanceBuiltDuringPrepare(t *testing.T) {
	p := provProblem()
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	prov, err := p.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	if prov == nil {
		t.Fatal("tracked problem has no provenance table")
	}
	// Candidates: items 1, 2, 4 (price < 25); each read exactly its item row.
	if prov.Len() != 3 {
		t.Fatalf("provenance prices %d candidates, want 3", prov.Len())
	}
	ck := relation.Ints(1, 10, 5).Key()
	reads := prov.Reads(ck)
	if len(reads) != 1 || reads[0] != query.SourceRef("item", relation.Ints(1, 10, 5).Key()) {
		t.Fatalf("reads of candidate 1 = %v", reads)
	}
	if got := prov.Readers(reads[0]); len(got) != 1 || got[0] != ck {
		t.Fatalf("readers of item 1 = %v", got)
	}
	s, ok := prov.Score(ck)
	if !ok || s.Cost != 10 || s.Val != 5 {
		t.Fatalf("score of candidate 1 = %+v ok=%v, want cost 10 val 5", s, ok)
	}

	// An untracked problem — or an untraceable query — has no table.
	bare := basicProblem(100, 1)
	if err := bare.Prepare(); err != nil {
		t.Fatal(err)
	}
	if prov, err := bare.Provenance(); err != nil || prov != nil {
		t.Fatalf("untracked problem: prov=%v err=%v, want nil/nil", prov, err)
	}
}

func applyTouched(t *testing.T, db *relation.Database, delta relation.Delta) (*relation.Database, map[string]relation.TouchSet) {
	t.Helper()
	res, err := db.ApplyDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	return res.DB, res.Touched
}

func TestRescoreReportsAffectedCandidates(t *testing.T) {
	p := provProblem()
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Delete candidate item 1, add a new in-filter item 5 and an
	// out-of-filter item 6.
	newDB, touched := applyTouched(t, p.DB, relation.Delta{
		Upserts: []relation.RelationDelta{{Name: "item", Tuples: [][]any{{5, 15, 7}, {6, 99, 1}}}},
		Deletes: []relation.RelationDelta{{Name: "item", Tuples: [][]any{{1, 10, 5}}}},
	})
	ups, err := p.Rescore(newDB, touched)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 {
		t.Fatalf("updates = %+v, want removed item 1 + added item 5", ups)
	}
	if !ups[0].Removed || ups[0].Tuple.Compare(relation.Ints(1, 10, 5)) != 0 {
		t.Fatalf("first update = %+v, want removal of item 1", ups[0])
	}
	if !ups[1].Added || ups[1].Tuple.Compare(relation.Ints(5, 15, 7)) != 0 {
		t.Fatalf("second update = %+v, want addition of item 5", ups[1])
	}
	if ups[1].Score.Cost != 15 || ups[1].Score.Val != 7 {
		t.Fatalf("added score = %+v, want cost 15 val 7", ups[1].Score)
	}
}

func TestAdvanceUnchangedSharesState(t *testing.T) {
	p := provProblem()
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Mutating only out-of-filter content leaves the candidates untouched.
	newDB, touched := applyTouched(t, p.DB, relation.Delta{
		Upserts: []relation.RelationDelta{{Name: "item", Tuples: [][]any{{7, 200, 2}}}},
	})
	adv, diff, err := p.Advance(newDB, touched)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Unchanged || len(diff.Added) != 0 || len(diff.Removed) != 0 {
		t.Fatalf("diff = %+v, want unchanged", diff)
	}
	if adv.DB != newDB {
		t.Fatal("advanced problem not rebound to the new database")
	}
	oldC, _ := p.Candidates()
	newC, err := adv.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	if oldC != newC {
		t.Fatal("unchanged advance should share the memoised candidates")
	}
}

func TestAdvanceMatchesFreshPrepare(t *testing.T) {
	p := provProblem()
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	// A mixed delta: remove candidate 2, add candidate 5, churn non-candidates.
	newDB, touched := applyTouched(t, p.DB, relation.Delta{
		Upserts: []relation.RelationDelta{{Name: "item", Tuples: [][]any{{5, 15, 7}, {8, 500, 1}}}},
		Deletes: []relation.RelationDelta{{Name: "item", Tuples: [][]any{{2, 20, 8}, {3, 30, 9}}}},
	})
	adv, diff, err := p.Advance(newDB, touched)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Unchanged || len(diff.Added) != 1 || len(diff.Removed) != 1 {
		t.Fatalf("diff = %+v, want one add + one remove", diff)
	}

	fresh := provProblem()
	fresh.DB = newDB
	if err := fresh.Prepare(); err != nil {
		t.Fatal(err)
	}
	advC, err := adv.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	freshC, _ := fresh.Candidates()
	if advC.Fingerprint() != freshC.Fingerprint() {
		t.Fatalf("advanced candidates %v differ from fresh prepare %v", advC, freshC)
	}
	advList, _ := adv.CandidateList()
	freshList, _ := fresh.CandidateList()
	for i := range freshList {
		if advList[i].Compare(freshList[i]) != 0 {
			t.Fatalf("candidate order diverged at %d: %v vs %v", i, advList[i], freshList[i])
		}
	}
	// The advanced problem must solve identically to the fresh one.
	gotSel, gotOK, err := adv.FindTopK()
	if err != nil {
		t.Fatal(err)
	}
	wantSel, wantOK, err := fresh.FindTopK()
	if err != nil {
		t.Fatal(err)
	}
	if gotOK != wantOK || len(gotSel) != len(wantSel) {
		t.Fatalf("topk diverged: got ok=%v n=%d want ok=%v n=%d", gotOK, len(gotSel), wantOK, len(wantSel))
	}
	for i := range wantSel {
		if gotSel[i].Key() != wantSel[i].Key() {
			t.Fatalf("topk package %d diverged: %v vs %v", i, gotSel[i], wantSel[i])
		}
	}
	// And its provenance must keep advancing: delete the added candidate.
	db3, touched3 := applyTouched(t, newDB, relation.Delta{
		Deletes: []relation.RelationDelta{{Name: "item", Tuples: [][]any{{5, 15, 7}}}},
	})
	_, diff3, err := adv.Advance(db3, touched3)
	if err != nil {
		t.Fatal(err)
	}
	if diff3.Unchanged || len(diff3.Removed) != 1 || diff3.Removed[0].Compare(relation.Ints(5, 15, 7)) != 0 {
		t.Fatalf("second advance diff = %+v, want removal of item 5", diff3)
	}
}

// A candidate with two derivations must survive the loss of one and die
// with both.
func TestAdvanceMultiDerivation(t *testing.T) {
	db := relation.NewDatabase()
	db.Add(relation.FromTuples(relation.NewSchema("a", "x"), relation.Ints(1)))
	db.Add(relation.FromTuples(relation.NewSchema("b", "x"), relation.Ints(1), relation.Ints(2)))
	u := query.NewUCQ("RQ",
		query.NewCQ("RQ", []query.Term{query.V("x")}, query.Rel("a", query.V("x"))),
		query.NewCQ("RQ", []query.Term{query.V("x")}, query.Rel("b", query.V("x"))),
	)
	p := &Problem{
		DB: db, Q: u,
		Cost: Count(), Val: Count(), Budget: 10,
		K: 1, TrackProvenance: true,
	}
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Deleting b(1) leaves (1) derivable through a(1).
	db2, touched := applyTouched(t, db, relation.Delta{
		Deletes: []relation.RelationDelta{{Name: "b", Tuples: [][]any{{1}}}},
	})
	adv, diff, err := p.Advance(db2, touched)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Unchanged {
		t.Fatalf("diff = %+v: candidate (1) should survive via a(1)", diff)
	}
	// Deleting a(1) as well removes it.
	db3, touched3 := applyTouched(t, db2, relation.Delta{
		Deletes: []relation.RelationDelta{{Name: "a", Tuples: [][]any{{1}}}},
	})
	_, diff3, err := adv.Advance(db3, touched3)
	if err != nil {
		t.Fatal(err)
	}
	if diff3.Unchanged || len(diff3.Removed) != 1 || diff3.Removed[0].Compare(relation.Ints(1)) != 0 {
		t.Fatalf("diff after losing both derivations = %+v", diff3)
	}
}

func TestCandidateBoundsAdmissible(t *testing.T) {
	p := provProblem()
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Candidates: (1,10,5), (2,20,8), (4,5,3); MaxPkgSize 2, val = sum rating.
	// Enumerate every valid package containing each candidate and check the
	// bounds bracket the true extrema.
	list, _ := p.CandidateList()
	for _, c := range list {
		ub, ok, err := p.CandidateValUpper(c)
		if err != nil || !ok {
			t.Fatalf("CandidateValUpper: ok=%v err=%v", ok, err)
		}
		lb, ok, err := p.CandidateCostLower(c)
		if err != nil || !ok {
			t.Fatalf("CandidateCostLower: ok=%v err=%v", ok, err)
		}
		bestVal := math.Inf(-1)
		minCost := math.Inf(1)
		err = p.EnumerateValid(func(pkg Package) (bool, error) {
			for _, t := range pkg.Tuples() {
				if t.Compare(c) == 0 {
					bestVal = math.Max(bestVal, p.Val.Eval(pkg))
					minCost = math.Min(minCost, p.Cost.Eval(pkg))
				}
			}
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if bestVal > ub {
			t.Fatalf("candidate %v: true best val %v exceeds upper bound %v", c, bestVal, ub)
		}
		if minCost < lb {
			t.Fatalf("candidate %v: true min cost %v below lower bound %v", c, minCost, lb)
		}
	}
}

// TestAdvanceKeepsKeyTableAligned checks that Advance, which reuses the
// keys of surviving candidates and keys only the added ones, leaves the
// key table aligned with the merged candidate list when added candidates
// land before, between and after the surviving ones.
func TestAdvanceKeepsKeyTableAligned(t *testing.T) {
	p := provProblem()
	p.K = 3
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	newDB, touched := applyTouched(t, p.DB, relation.Delta{
		Upserts: []relation.RelationDelta{{Name: "item", Tuples: [][]any{{0, 1, 1}, {3, 12, 2}, {9, 3, 3}}}},
		Deletes: []relation.RelationDelta{{Name: "item", Tuples: [][]any{{2, 20, 8}}}},
	})
	adv, diff, err := p.Advance(newDB, touched)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added) != 3 || len(diff.Removed) != 1 {
		t.Fatalf("diff = %+v, want three adds and one remove", diff)
	}
	if len(adv.candKeys) != len(adv.candList) {
		t.Fatalf("%d keys for %d candidates", len(adv.candKeys), len(adv.candList))
	}
	for i, c := range adv.candList {
		if adv.candKeys[i] != c.Key() {
			t.Fatalf("key %d is %q, candidate %v has key %q", i, adv.candKeys[i], c, c.Key())
		}
	}
	fresh := provProblem()
	fresh.K = 3
	fresh.DB = newDB
	gotN, err := adv.CountValid(math.Inf(-1))
	if err != nil {
		t.Fatal(err)
	}
	wantN, err := fresh.CountValid(math.Inf(-1))
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN {
		t.Fatalf("advanced problem counts %d packages, fresh prepare %d", gotN, wantN)
	}
	gotSel, gotOK, err := adv.FindTopK()
	if err != nil {
		t.Fatal(err)
	}
	wantSel, wantOK, err := fresh.FindTopK()
	if err != nil {
		t.Fatal(err)
	}
	if gotOK != wantOK || len(gotSel) != len(wantSel) {
		t.Fatalf("topk diverged: got ok=%v n=%d want ok=%v n=%d", gotOK, len(gotSel), wantOK, len(wantSel))
	}
	for i := range wantSel {
		if gotSel[i].Key() != wantSel[i].Key() {
			t.Fatalf("topk package %d diverged: %v vs %v", i, gotSel[i], wantSel[i])
		}
	}
}
