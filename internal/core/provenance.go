package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/query"
	"repro/internal/relation"
)

// Read provenance and delta-driven problem repair. A Problem with
// TrackProvenance set builds, alongside its memoised candidate answer, a
// Provenance table: which relation tuples each candidate was derived from
// (its reads), plus the candidate's singleton cost/val scores. Given the
// touched tuple-key set a collection delta reports, the table answers the
// questions result repair needs without re-evaluating Q: which candidates
// are affected (Rescore), and what the candidate set of the post-delta
// problem is (Advance) — computed by a semi-naive delta pass over the new
// database instead of a full prepare.

// Score is a candidate's singleton pricing: the cost and val of the
// one-tuple package {c}.
type Score struct {
	Cost float64
	Val  float64
}

// Provenance is the per-candidate read table of a prepared Problem. It is
// immutable after construction: Advance builds a new table for the
// advanced problem rather than editing in place, so a table may be read
// while its successor is being built.
type Provenance struct {
	// perCand maps a candidate Tuple.Key() to the union of the SourceRefs
	// of all its derivations.
	perCand map[string][]string
	// byRead inverts perCand: SourceRef → candidate keys reading it.
	byRead map[string][]string
	// scores holds each candidate's singleton pricing.
	scores map[string]Score
	// tuples maps candidate keys back to tuples.
	tuples map[string]relation.Tuple
}

// newProvenance indexes a traced evaluation of p's candidate list: reads
// maps candidate keys to source refs.
func newProvenance(p *Problem, reads map[string][]string) *Provenance {
	cands := p.candList
	v := &Provenance{
		perCand: reads,
		byRead:  make(map[string][]string),
		scores:  make(map[string]Score, len(cands)),
		tuples:  make(map[string]relation.Tuple, len(cands)),
	}
	for i, t := range cands {
		k := p.candKeys[i]
		v.tuples[k] = t
		pkg := Package{tuples: cands[i : i+1 : i+1], key: k + ";"}
		v.scores[k] = Score{Cost: p.Cost.Eval(pkg), Val: p.Val.Eval(pkg)}
		for _, ref := range reads[k] {
			v.byRead[ref] = append(v.byRead[ref], k)
		}
	}
	return v
}

// Reads returns the source refs (query.SourceRef form) of every derivation
// of the candidate with the given Tuple.Key(); nil for unknown candidates.
func (v *Provenance) Reads(candidateKey string) []string { return v.perCand[candidateKey] }

// Readers returns the keys of the candidates with a derivation through the
// given source ref.
func (v *Provenance) Readers(ref string) []string { return v.byRead[ref] }

// Score returns the candidate's singleton pricing.
func (v *Provenance) Score(candidateKey string) (Score, bool) {
	s, ok := v.scores[candidateKey]
	return s, ok
}

// Len is the number of candidates priced by the table.
func (v *Provenance) Len() int { return len(v.tuples) }

// Provenance returns the problem's read-provenance table, nil when the
// problem does not track provenance (TrackProvenance unset, or Q outside
// the traceable fragment). Building the candidates builds the table.
func (p *Problem) Provenance() (*Provenance, error) {
	if _, err := p.Candidates(); err != nil {
		return nil, err
	}
	return p.prov, nil
}

// CandidatesFingerprint is the content fingerprint of the memoised
// candidate answer Q(D) — the candidate-set digest repair classification
// compares across versions.
func (p *Problem) CandidatesFingerprint() (string, error) {
	c, err := p.Candidates()
	if err != nil {
		return "", err
	}
	return c.Fingerprint(), nil
}

// CandidateUpdate is one entry of a Rescore report: a candidate whose
// derivations read a touched tuple, or a candidate newly derivable after
// the delta, with its score on the new database. A surviving candidate's
// score never actually moves — candidates are output tuples and their
// pricing is a function of their own attributes — so a non-Added,
// non-Removed update re-confirms the recorded score.
type CandidateUpdate struct {
	Tuple   relation.Tuple
	Added   bool // newly derivable after the delta
	Removed bool // no longer derivable after the delta
	Score   Score
}

// Rescore reports, given the touched tuple keys a delta produced, the
// affected candidates and their new scores over the post-delta database:
// candidates with a recorded read among the removed tuples (re-checked for
// derivability, and marked Removed when every derivation broke) and
// candidates newly derivable through the added tuples. Candidates outside
// the report are untouched: no derivation of theirs read a touched tuple.
func (p *Problem) Rescore(newDB *relation.Database, touched map[string]relation.TouchSet) ([]CandidateUpdate, error) {
	d, err := p.rescore(newDB, touched)
	if err != nil {
		return nil, err
	}
	var out []CandidateUpdate
	for _, t := range d.removed {
		k := t.Key()
		s := p.prov.scores[k]
		out = append(out, CandidateUpdate{Tuple: t, Removed: true, Score: s})
	}
	for k := range d.retraced {
		t := p.prov.tuples[k]
		pkg := NewPackage(t)
		out = append(out, CandidateUpdate{Tuple: t, Score: Score{Cost: p.Cost.Eval(pkg), Val: p.Val.Eval(pkg)}})
	}
	for _, t := range d.added {
		pkg := NewPackage(t)
		out = append(out, CandidateUpdate{Tuple: t, Added: true, Score: Score{Cost: p.Cost.Eval(pkg), Val: p.Val.Eval(pkg)}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	return out, nil
}

// AdvanceDiff reports how Advance changed the candidate set. Unchanged
// means the advanced problem's candidates (and therefore every score and
// bound table) are identical to the receiver's — the delta touched nothing
// any candidate was derived from, or only broke redundant derivations.
type AdvanceDiff struct {
	Unchanged bool
	Added     []relation.Tuple
	Removed   []relation.Tuple
}

// Advance returns a prepared copy of the problem over the post-delta
// database, computed incrementally from the receiver's provenance: instead
// of re-evaluating Q, affected candidates are re-checked for derivability
// and new candidates found by a semi-naive pass restricted to the added
// tuples. The advanced problem tracks provenance again, so a chain of
// deltas advances in O(touched work) per step. The receiver is unchanged
// and remains usable (it describes the old snapshot).
func (p *Problem) Advance(newDB *relation.Database, touched map[string]relation.TouchSet) (*Problem, *AdvanceDiff, error) {
	d, err := p.rescore(newDB, touched)
	if err != nil {
		return nil, nil, err
	}
	adv := *p
	adv.DB = newDB
	diff := &AdvanceDiff{Added: d.added, Removed: d.removed}

	if len(d.added) == 0 && len(d.removed) == 0 {
		diff.Unchanged = true
		// Candidate set, scores, and bound tables all carry over; only the
		// read table may need refreshing (surviving candidates whose
		// derivations were re-traced, or new redundant derivations).
		if len(d.retraced) > 0 || len(d.merged) > 0 {
			adv.prov = p.prov.rebuilt(&adv, d)
		}
		return &adv, diff, nil
	}

	// Merge the surviving candidates (keys reused) with the added ones
	// (keyed here); both runs are in canonical order.
	removedKeys := make(map[string]struct{}, len(d.removed))
	for _, t := range d.removed {
		removedKeys[t.Key()] = struct{}{}
	}
	n := len(p.candList) - len(d.removed) + len(d.added)
	list := make([]relation.Tuple, 0, n)
	keys := make([]string, 0, n)
	j := 0
	for i, t := range p.candList {
		k := p.candKeys[i]
		if _, gone := removedKeys[k]; gone {
			continue
		}
		for ; j < len(d.added) && d.added[j].Compare(t) < 0; j++ {
			list = append(list, d.added[j])
			keys = append(keys, d.added[j].Key())
		}
		list = append(list, t)
		keys = append(keys, k)
	}
	for ; j < len(d.added); j++ {
		list = append(list, d.added[j])
		keys = append(keys, d.added[j].Key())
	}

	cands := p.candidates.Clone()
	for _, t := range d.removed {
		cands.Delete(t)
	}
	for _, t := range d.added {
		if err := cands.Insert(t); err != nil {
			return nil, nil, err
		}
	}
	adv.candidates = cands
	adv.candList = list
	adv.candKeys = keys
	adv.costBounds, adv.valBounds, adv.boundsReady = nil, nil, false
	adv.newStrategy(nil) // rebuild the bound tables over the new list
	adv.prov = p.prov.rebuilt(&adv, d)
	return &adv, diff, nil
}

// rescoreDiff is the shared internal result of one delta pass.
type rescoreDiff struct {
	removed []relation.Tuple
	added   []relation.Tuple
	// retraced maps surviving affected candidates to their fresh reads on
	// the new database.
	retraced map[string][]string
	// merged maps existing candidates that gained derivations through
	// added tuples to the refs of those derivations.
	merged map[string][]string
	// addedReads maps new candidates to their delta-derivation reads.
	addedReads map[string][]string
}

// rescore runs the delta pass: affected-candidate re-derivation plus the
// semi-naive search for new candidates.
func (p *Problem) rescore(newDB *relation.Database, touched map[string]relation.TouchSet) (*rescoreDiff, error) {
	if newDB == nil {
		return nil, fmt.Errorf("core: rescore needs the post-delta database")
	}
	if _, err := p.Candidates(); err != nil {
		return nil, err
	}
	if p.prov == nil {
		return nil, fmt.Errorf("core: problem does not track provenance (TrackProvenance unset or query untraceable)")
	}
	d := &rescoreDiff{retraced: make(map[string][]string), merged: make(map[string][]string)}

	// Candidates with a recorded read among the removed tuples: re-check
	// derivability with the head bound to the candidate.
	affected := make(map[string]struct{})
	for rel, ts := range touched {
		for _, t := range ts.Removed {
			for _, ck := range p.prov.byRead[query.SourceRef(rel, t.Key())] {
				affected[ck] = struct{}{}
			}
		}
	}
	for ck := range affected {
		t := p.prov.tuples[ck]
		ok, reads, err := query.TraceTuple(p.Q, newDB, t)
		if err != nil {
			return nil, err
		}
		if !ok {
			d.removed = append(d.removed, t)
			continue
		}
		d.retraced[ck] = reads
	}
	sort.Slice(d.removed, func(i, j int) bool { return d.removed[i].Compare(d.removed[j]) < 0 })

	// New candidates: every output with a derivation through an added
	// tuple, found by one semi-naive pass. Outputs already in the old
	// candidate set merely gained a redundant derivation; recording those
	// reads keeps the table closer to complete but is not required for
	// soundness (an unrecorded derivation breaking can only be confused
	// for "unaffected", which is correct while a recorded one holds).
	addedByRel := make(map[string][]relation.Tuple)
	for rel, ts := range touched {
		if len(ts.Added) > 0 {
			addedByRel[rel] = ts.Added
		}
	}
	if len(addedByRel) > 0 {
		tuples, reads, err := query.TraceDelta(p.Q, newDB, addedByRel)
		if err != nil {
			return nil, err
		}
		for _, t := range tuples {
			k := t.Key()
			if _, existing := p.prov.tuples[k]; existing {
				// Already a candidate: it gained a redundant derivation.
				// (It cannot be in removed — a delta derivation on the new
				// database would have satisfied its re-trace.)
				d.merged[k] = reads[k]
				continue
			}
			d.added = append(d.added, t)
			if d.addedReads == nil {
				d.addedReads = make(map[string][]string)
			}
			d.addedReads[k] = reads[k]
		}
		sort.Slice(d.added, func(i, j int) bool { return d.added[i].Compare(d.added[j]) < 0 })
	}
	return d, nil
}

// rebuilt produces the advanced problem's provenance table from the old
// table and a delta pass: removed candidates dropped, re-traced candidates
// refreshed, merged derivations unioned in, added candidates priced.
func (v *Provenance) rebuilt(adv *Problem, d *rescoreDiff) *Provenance {
	reads := make(map[string][]string, len(adv.candKeys))
	for _, k := range adv.candKeys {
		if fresh, ok := d.retraced[k]; ok {
			reads[k] = fresh
		} else if r, ok := d.addedReads[k]; ok {
			reads[k] = r
		} else {
			reads[k] = v.perCand[k]
		}
		if extra, ok := d.merged[k]; ok {
			reads[k] = unionRefs(reads[k], extra)
		}
	}
	return newProvenance(adv, reads)
}

func unionRefs(a, b []string) []string {
	seen := make(map[string]struct{}, len(a))
	out := append([]string(nil), a...)
	for _, r := range a {
		seen[r] = struct{}{}
	}
	for _, r := range b {
		if _, ok := seen[r]; !ok {
			seen[r] = struct{}{}
			out = append(out, r)
		}
	}
	return out
}

// CandidateValUpper returns an admissible upper bound on val(N) over every
// package N containing c with |N| within the size bound, drawn from the
// problem's candidate list: the suffix bound tables evaluated over the full
// list, so any extension of {c} is covered. ok is false when the val
// aggregator carries no bounder (or the problem is exhaustive) — the caller
// must then treat every candidate as potentially relevant.
func (p *Problem) CandidateValUpper(c relation.Tuple) (float64, bool, error) {
	if err := p.Prepare(); err != nil {
		return 0, false, err
	}
	if p.Exhaustive || p.valBounds == nil {
		return 0, false, nil
	}
	cur := p.Val.Eval(NewPackage(c))
	ms, err := p.maxSize()
	if err != nil {
		return 0, false, err
	}
	if ms-1 <= 0 || len(p.candList) == 0 {
		return cur, true, nil
	}
	return math.Max(cur, p.valBounds.Upper(cur, 1, 0, ms-1)), true, nil
}

// CandidateCostLower is the pessimistic twin: a lower bound on cost(N)
// over every size-valid package N containing c. A bound above the budget
// proves c participates in no valid package.
func (p *Problem) CandidateCostLower(c relation.Tuple) (float64, bool, error) {
	if err := p.Prepare(); err != nil {
		return 0, false, err
	}
	if p.Exhaustive || p.costBounds == nil {
		return 0, false, nil
	}
	cur := p.Cost.Eval(NewPackage(c))
	ms, err := p.maxSize()
	if err != nil {
		return 0, false, err
	}
	if ms-1 <= 0 || len(p.candList) == 0 {
		return cur, true, nil
	}
	return math.Min(cur, p.costBounds.Lower(cur, 1, 0, ms-1)), true, nil
}
