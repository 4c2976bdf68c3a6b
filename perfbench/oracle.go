package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/relation"
	"repro/internal/relax"
	"repro/internal/serve"
)

// The oracle: every answer the daemon gives is compared with the library
// answer — spec.ProblemSpec.Build plus the matching core or relax call —
// on the collection content of the version the response names. Answers
// are compared through a digest of what the operation decides: top-k
// selections by their rating multiset (selections may differ in ties,
// exactly as the serving layer's own repair-soundness test allows),
// decide and exists by their verdict, count by the count, maxbound by the
// bound, relax by the gap and the relaxed query.
//
// A call that raced a delta install is held to the serving layer's
// consistency contract instead (see Server.cacheLookup: "a request racing
// a delta may be answered on either side of it"): the version its
// response names must be one that was current while the call was in
// flight, and its answer must be the library answer on that version or on
// another version installed while the call was in flight. The daemon
// names the snapshot it validated the request on even when it serves the
// answer of the version that superseded it; such answers are counted and
// reported on standard error.

// answer renders the decided part of a wire result.
func answer(r *serve.Result) string {
	var b strings.Builder
	b.WriteString(r.Op)
	b.WriteString(strconv.FormatBool(r.OK))
	switch r.Op {
	case serve.OpTopK:
		vals := make([]float64, len(r.Packages))
		for i, p := range r.Packages {
			vals[i] = p.Val
		}
		writeSorted(&b, vals)
	case serve.OpCount:
		if r.Count != nil {
			b.WriteString(strconv.FormatInt(*r.Count, 10))
		}
	case serve.OpMaxBound:
		if r.Bound != nil {
			b.WriteString(strconv.FormatFloat(*r.Bound, 'g', -1, 64))
		}
	case serve.OpRelax:
		if r.Gap != nil {
			b.WriteString(strconv.FormatFloat(*r.Gap, 'g', -1, 64))
		}
		b.WriteString(r.RelaxedQuery)
	}
	return b.String()
}

func writeSorted(b *strings.Builder, vals []float64) {
	sort.Float64s(vals)
	for _, v := range vals {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
}

// digest hashes an answer so that a run can keep one word per item.
func digest(r *serve.Result) uint64 {
	h := fnv.New64a()
	h.Write([]byte(answer(r)))
	return h.Sum64()
}

// libraryAnswer solves a pool item with the library on db, the way the
// daemon's solve path calls it (one engine worker), and returns the wire
// form of the decided part.
func libraryAnswer(ctx context.Context, db *relation.Database, it experiments.WorkloadItem, sel []core.Package) (*serve.Result, error) {
	prob, err := it.Spec.Build(db)
	if err != nil {
		return nil, err
	}
	return solveOp(ctx, prob, it, sel)
}

// solveOp runs the item's operation on a built problem.
func solveOp(ctx context.Context, prob *core.Problem, it experiments.WorkloadItem, sel []core.Package) (*serve.Result, error) {
	res := &serve.Result{Op: it.Op}
	var err error
	switch it.Op {
	case serve.OpTopK:
		var pkgs []core.Package
		pkgs, res.OK, err = prob.FindTopKParallelCtx(ctx, 1)
		for _, p := range pkgs {
			res.Packages = append(res.Packages, serve.PackageResult{Val: prob.Val.Eval(p), Cost: prob.Cost.Eval(p)})
		}
	case serve.OpDecide:
		res.OK, _, err = prob.DecideTopKParallelCtx(ctx, sel, 1)
	case serve.OpMaxBound:
		var b float64
		b, res.OK, err = prob.MaxBoundParallelCtx(ctx, 1)
		if res.OK {
			res.Bound = &b
		}
	case serve.OpCount:
		var n int64
		n, err = prob.CountValidParallelCtx(ctx, it.Spec.Bound, 1)
		res.OK, res.Count = true, &n
	case serve.OpExists:
		res.OK, err = prob.ExistsKValidParallelCtx(ctx, prob.K, it.Spec.Bound, 1)
	case serve.OpRelax:
		inst, berr := it.Relax.Build(prob)
		if berr != nil {
			return nil, berr
		}
		var rel *relax.Relaxation
		rel, res.OK, err = relax.DecideCtx(ctx, inst, 1)
		if res.OK {
			res.Gap, res.RelaxedQuery = &rel.Gap, rel.Query.String()
		}
	default:
		return nil, fmt.Errorf("no library oracle for op %q", it.Op)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// decodeSelection turns a decide item's wire selection into packages.
func decodeSelection(wire [][][]any) ([]core.Package, error) {
	pkgs := make([]core.Package, len(wire))
	for i, rows := range wire {
		tuples := make([]relation.Tuple, len(rows))
		for j, row := range rows {
			t := make(relation.Tuple, len(row))
			for k, x := range row {
				v, err := relation.ValueFromJSON(x)
				if err != nil {
					return nil, err
				}
				t[k] = v
			}
			tuples[j] = t
		}
		pkgs[i] = core.NewPackage(tuples...)
	}
	return pkgs, nil
}

// expectAnswers computes the library answer to every pool item on the
// catalog as uploaded, for workloads whose installs go to the side
// collection and so never change it.
func (s *session) expectAnswers(ctx context.Context) error {
	if s.w.deltaOnCatalog {
		return nil
	}
	e := &expectation{version: s.catalog.n, fp: s.catalog.fp, digests: make([]uint64, len(s.pool))}
	errs := make([]error, len(s.pool))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(s.pool); i += conns {
				res, err := libraryAnswer(ctx, s.catalog.db, s.pool[i], s.sels[i])
				if err != nil {
					errs[i] = fmt.Errorf("library answer for pool item %d: %w", i, err)
					continue
				}
				e.digests[i] = digest(res)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.expect = e
	return nil
}

// version is one collection version: its content and fingerprint.
type version struct {
	n  uint64
	fp string
	db *relation.Database
}

// chain replays a collection's installs from its uploaded version.
type chain struct {
	cur      version
	installs []install
	next     int
}

// advance applies the next install to the mirror and checks that the
// daemon reported the same version and content.
func (c *chain) advance() error {
	in := c.installs[c.next]
	c.next++
	if in.err != nil {
		return fmt.Errorf("install %d failed: %v", in.seq, in.err)
	}
	res, err := c.cur.db.ApplyDelta(in.delta)
	if err != nil {
		return fmt.Errorf("install %d: mirror: %v", in.seq, err)
	}
	c.cur = version{n: c.cur.n + 1, fp: res.DB.Fingerprint(), db: res.DB}
	if in.info.Version != c.cur.n || in.info.Fingerprint != c.cur.fp {
		return fmt.Errorf("install %d: daemon reports version %d fingerprint %s, mirror has %d %s",
			in.seq, in.info.Version, in.info.Fingerprint, c.cur.n, c.cur.fp)
	}
	return nil
}

// seek advances the chain to version n.
func (c *chain) seek(n uint64) error {
	for c.cur.n < n {
		if c.next == len(c.installs) {
			return fmt.Errorf("version %d was never installed", n)
		}
		if err := c.advance(); err != nil {
			return err
		}
	}
	if c.cur.n != n {
		return fmt.Errorf("version %d is behind the chain at %d", n, c.cur.n)
	}
	return nil
}

// verdict is the outcome of checking a run's answers and installs.
type verdict struct {
	wrong    map[answerKey]bool // answers that disagree with the library
	raced    int                // answers accepted on another version than the named one
	problems []string           // install and fingerprint failures
	notes    []string           // what the wrong answers look like
}

type recKey struct {
	version uint64
	idx     int32
}

// readVersions is the range of read-collection versions that were
// current while an answer's call was in flight.
func (s *session) readVersions(k answerKey) (lo, hi uint64) {
	if !s.w.deltaOnCatalog {
		return s.catalog.n, s.catalog.n
	}
	return s.catalog.n + uint64(k.seen.lo), s.catalog.n + uint64(k.seen.hi)
}

// judge accepts an answer whose response names a version in [lo, hi] —
// the versions current while its call was in flight — and that equals
// the library answer on the named version (raced false) or on another
// version in the range (raced true).
func judge(k answerKey, lo, hi uint64, expected map[recKey]uint64) (ok, raced bool) {
	if k.version < lo || k.version > hi {
		return false, false
	}
	if want, found := expected[recKey{k.version, k.idx}]; found && want == k.digest {
		return true, false
	}
	for n := lo; n <= hi; n++ {
		if want, found := expected[recKey{n, k.idx}]; found && n != k.version && want == k.digest {
			return true, true
		}
	}
	return false, false
}

// verify checks every recorded answer against the library answers on the
// versions current while its call was in flight (see judge), and every
// install against a mirror that replays the installs; fps are the
// fingerprints responses named per version. corrupt flips the expected
// answers of one pool item, for the self-test that the oracle catches a
// wrong answer.
func verify(ctx context.Context, s *session, recs []record, fps map[uint64]string,
	installs []install, corrupt bool) (*verdict, error) {

	v := &verdict{wrong: map[answerKey]bool{}}
	reads := &chain{cur: s.catalog}
	side := &chain{cur: s.side}
	if s.w.deltaOnCatalog {
		reads.installs = installs
	} else {
		side.installs = installs
	}
	for side.next < len(side.installs) {
		if err := side.advance(); err != nil {
			v.problems = append(v.problems, err.Error())
			break
		}
	}

	keys := map[recKey]bool{}
	for _, r := range recs {
		keys[recKey{r.version, r.idx}] = true
		if lo, hi := s.readVersions(r.answerKey); lo <= r.version && r.version <= hi {
			for n := lo; n <= hi; n++ {
				keys[recKey{n, r.idx}] = true
			}
		}
	}
	sorted := make([]recKey, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].version != sorted[j].version {
			return sorted[i].version < sorted[j].version
		}
		return sorted[i].idx < sorted[j].idx
	})

	// One library solve per item and content: the churn returns the
	// catalog to the same content every other install.
	type job struct {
		idx int32
		db  *relation.Database
	}
	type content struct {
		fp  string
		idx int32
	}
	var jobs []job
	jobOf := map[recKey]int{}
	byContent := map[content]int{}
	unreachable := map[uint64]bool{}
	expected := map[recKey]uint64{}
	for _, k := range sorted {
		if e := s.expect; e != nil && k.version == e.version {
			expected[k] = e.digests[k.idx]
			continue
		}
		if unreachable[k.version] {
			continue
		}
		if err := reads.seek(k.version); err != nil {
			v.problems = append(v.problems, err.Error())
			unreachable[k.version] = true
			continue
		}
		if fp, ok := fps[k.version]; ok && fp != reads.cur.fp {
			v.problems = append(v.problems, fmt.Sprintf("version %d: response fingerprint %s, mirror %s", k.version, fp, reads.cur.fp))
			unreachable[k.version] = true
			continue
		}
		j, ok := byContent[content{reads.cur.fp, k.idx}]
		if !ok {
			j = len(jobs)
			jobs = append(jobs, job{k.idx, reads.cur.db})
			byContent[content{reads.cur.fp, k.idx}] = j
		}
		jobOf[k] = j
	}
	for reads.next < len(reads.installs) {
		if err := reads.advance(); err != nil {
			v.problems = append(v.problems, err.Error())
			break
		}
	}

	want := make([]uint64, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(jobs); j += conns {
				res, err := libraryAnswer(ctx, jobs[j].db, s.pool[jobs[j].idx], s.sels[jobs[j].idx])
				if err != nil {
					errs[j] = err
					continue
				}
				want[j] = digest(res)
			}
		}(w)
	}
	wg.Wait()
	for j, jb := range jobs {
		if errs[j] != nil {
			return nil, fmt.Errorf("library answer for pool item %d: %w", jb.idx, errs[j])
		}
	}
	if corrupt && len(jobs) > 0 {
		for j := range jobs {
			if jobs[j].idx == jobs[0].idx {
				want[j] ^= 1
			}
		}
	}
	for k, j := range jobOf {
		expected[k] = want[j]
	}
	judged := map[answerKey]bool{}
	for _, r := range recs {
		if judged[r.answerKey] {
			continue
		}
		judged[r.answerKey] = true
		lo, hi := s.readVersions(r.answerKey)
		switch ok, raced := judge(r.answerKey, lo, hi, expected); {
		case !ok:
			v.wrong[r.answerKey] = true
		case raced:
			v.raced++
		}
	}
	if len(v.wrong) > 0 {
		v.notes = explain(ctx, s, reads.installs, v.wrong)
	}
	return v, nil
}

// maxNotes bounds the wrong answers explain describes.
const maxNotes = 20

// explain describes wrong answers: for each, whether it equals the
// library answer on the version just before or just after the one the
// response names — the mark of an answer computed on another snapshot
// than the one it is reported on.
func explain(ctx context.Context, s *session, installs []install, wrong map[answerKey]bool) []string {
	bads := make([]answerKey, 0, len(wrong))
	for k := range wrong {
		bads = append(bads, k)
	}
	sort.Slice(bads, func(i, j int) bool {
		if bads[i].version != bads[j].version {
			return bads[i].version < bads[j].version
		}
		return bads[i].idx < bads[j].idx
	})
	bads = bads[:min(len(bads), maxNotes)]
	need := map[uint64]bool{}
	for _, b := range bads {
		need[b.version-1], need[b.version+1] = true, true
	}
	dbs := map[uint64]*relation.Database{}
	c := &chain{cur: s.catalog, installs: installs}
	for {
		if need[c.cur.n] {
			dbs[c.cur.n] = c.cur.db
		}
		if c.next == len(c.installs) || c.advance() != nil {
			break
		}
	}
	var notes []string
	for _, b := range bads {
		match := "neither neighbouring version"
		for _, n := range []uint64{b.version - 1, b.version + 1} {
			if db := dbs[n]; db != nil {
				res, err := libraryAnswer(ctx, db, s.pool[b.idx], s.sels[b.idx])
				if err == nil && digest(res) == b.digest {
					match = fmt.Sprintf("the library answer at version %d", n)
					break
				}
			}
		}
		lo, hi := s.readVersions(b)
		notes = append(notes, fmt.Sprintf("pool item %d (%s) answered at version %d, in flight over versions %d-%d, disagrees with the library there; it equals %s",
			b.idx, s.pool[b.idx].Op, b.version, lo, hi, match))
	}
	return notes
}
