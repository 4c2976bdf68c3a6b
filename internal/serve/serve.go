// Package serve is the serving layer: a long-lived, concurrent
// recommendation service that owns a set of named item collections and
// answers the paper's six problems (RPP, FRP, MBP, CPP, QRPP, ARPP) over
// them, designed for streams of related queries rather than one-shot
// library calls. QRPP is served in two forms: op "relax" (the minimal
// relaxation) and op "relaxplan" (the ranked minimal-relaxation
// suggestions, each with a witness package).
//
// Five mechanisms make repeated traffic cheap:
//
//   - a bounded-size LRU result cache keyed by a canonical fingerprint of
//     (collection name, content fingerprint of the relations the request
//     reads, canonical problem spec, operation parameters) — see cacheKey —
//     so a repeated solve is a map lookup. Because the key is
//     content-addressed at relation granularity, a delta to one relation
//     (MutateCollection) leaves every entry over unaffected relations
//     valid and reachable; only dependent entries are purged;
//   - request coalescing: identical solves that are in flight at the same
//     time share one engine run (a small singleflight group keyed like the
//     cache), so a thundering herd of equal requests costs one solve;
//   - a bounded worker pool: at most MaxConcurrent solves run at once, each
//     on the internal/core root-splitting parallel engine with a
//     per-request context deadline; excess requests queue on the pool;
//   - batched evaluation: SolveBatch (HTTP: POST /v1/batch) answers N
//     requests against one collection snapshot, deduplicating identical
//     sub-requests through the cache keys and isolating per-item failures
//     under a whole-batch deadline — the per-request setup overhead is paid
//     once per batch, not once per query;
//   - a per-collection prepared-problem cache: sub-solves and requests with
//     equal canonical specs share one built-and-prepared core.Problem
//     (candidates evaluated and bound tables warmed once), and a delta
//     carries every prepared problem over unaffected relations into the
//     next collection version, so warm-path solves after a small mutation
//     skip the rebuild entirely.
//
// Collections are copy-on-write snapshots (relation.Database.Clone shares
// tuple storage): readers keep solving against the version they resolved
// while a writer installs the next one, and the SnapshotsLive stat counts
// versions still pinned.
//
// Results are identical to direct library calls: every operation dispatches
// to the same solvers the public pkgrec API wraps, with the engine's
// serial/parallel equivalence guarantees. The HTTP front end (Handler,
// cmd/pkgrecd) and client live in http.go and client.go; docs/serving.md
// documents the wire protocol.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adjust"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/pbo"
	"repro/internal/relation"
	"repro/internal/relax"
	"repro/internal/spec"
)

// Options configures a Server. The zero value means: 1024 cache entries,
// 256 prepared problems per collection, GOMAXPROCS concurrent solves, 1
// engine worker per solve (so concurrent requests, not intra-solve
// parallelism, saturate the cores — a loaded server's sweet spot; raise
// EngineWorkers for low-traffic/large-solve deployments), no default
// deadline, 1024-sample latency window.
type Options struct {
	// CacheSize is the maximum number of cached results; ≤ 0 means 1024.
	CacheSize int
	// ProblemCacheSize bounds the prepared problems (warmed candidate
	// lists and bound tables) kept per collection version; ≤ 0 means 256.
	ProblemCacheSize int
	// MaxConcurrent bounds the number of solves running at once; ≤ 0 means
	// GOMAXPROCS. Excess solves queue (respecting their context).
	MaxConcurrent int
	// EngineWorkers is the per-solve worker count handed to the parallel
	// engine when a request does not set its own; ≤ 0 means 1.
	EngineWorkers int
	// DefaultTimeout applies to requests that carry no timeout; 0 means
	// no deadline.
	DefaultTimeout time.Duration
	// LatencyWindow is the number of recent solve latencies kept for the
	// percentile stats; ≤ 0 means 1024.
	LatencyWindow int
	// MaxQueue bounds each collection's admission queue — the
	// per-collection fairness budget: a collection with MaxQueue solves
	// already waiting sheds its next one with 429 + Retry-After, without
	// touching other collections' traffic; ≤ 0 means 16 × MaxConcurrent.
	MaxQueue int
	// ShedThreshold sheds non-cheap solves whose predicted wait for a
	// pool slot (queue drain at predicted cost) exceeds it; 0 disables
	// predicted-wait shedding (the MaxQueue bound still applies).
	ShedThreshold time.Duration
	// CheapThreshold classifies a solve as cheap — eligible for the
	// express admission lane and exempt from predicted-wait shedding —
	// when its predicted cost is at or below it; ≤ 0 means 2ms.
	CheapThreshold time.Duration
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.ProblemCacheSize <= 0 {
		o.ProblemCacheSize = 256
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.EngineWorkers <= 0 {
		o.EngineWorkers = 1
	}
	if o.LatencyWindow <= 0 {
		o.LatencyWindow = 1024
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 16 * o.MaxConcurrent
	}
	if o.CheapThreshold <= 0 {
		o.CheapThreshold = 2 * time.Millisecond
	}
	return o
}

// collection is an immutable snapshot of one named item collection. Solves
// pin the snapshot, not the server lock, so a swap or delta never blocks or
// races in-flight requests — they finish against the version they started
// with. refs counts the registry's reference plus one per pinned solve;
// when it drops to zero the version is gone and the SnapshotsLive gauge
// falls.
type collection struct {
	name        string
	version     uint64
	fingerprint string
	db          *relation.Database
	probs       *problemCache
	refs        atomic.Int64
}

// relevant returns the content fingerprint of the part of this snapshot a
// request with the given dependency set reads: the whole-database
// fingerprint when the set is not exhaustive, the subset fingerprint of the
// named relations otherwise.
func (c *collection) relevant(deps []string, depsAll bool) string {
	if depsAll {
		return c.fingerprint
	}
	return c.db.FingerprintOf(deps...)
}

// CollectionInfo describes a collection to clients.
type CollectionInfo struct {
	Name        string `json:"name"`
	Version     uint64 `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Relations   int    `json:"relations"`
	Tuples      int    `json:"tuples"`
}

func (c *collection) info() CollectionInfo {
	return CollectionInfo{
		Name:        c.name,
		Version:     c.version,
		Fingerprint: c.fingerprint,
		Relations:   len(c.db.Names()),
		Tuples:      c.db.Size(),
	}
}

// Server is the recommendation service. Create one with NewServer; all
// methods are safe for concurrent use.
type Server struct {
	opts   Options
	admit  *admitter
	cost   *costModel
	cache  *lruCache
	flight flightGroup
	stats  statsRec
	eng    core.EngineCounters
	pbo    pbo.Counters

	// writeMu serializes collection writers (SetCollection,
	// MutateCollection, RemoveCollection) so delta application and
	// fingerprinting run outside mu — readers are only blocked for the
	// pointer install.
	writeMu sync.Mutex
	mu      sync.RWMutex
	colls   map[string]*collection

	// walMu guards the durability registry (see durable.go); nil walCfg
	// means durability is off.
	walMu  sync.Mutex
	walCfg *WALConfig
	wals   map[string]*collWAL

	// solveHook, when set (tests only), runs inside every solve while it
	// holds its pool slot — the knob the admission soak uses to give
	// solves a deterministic, per-collection duration.
	solveHook func(v validated)
	// lookupHook, when set (tests only), runs at the start of every
	// result-cache lookup, after the request validated against its
	// snapshot — where a test installs a racing delta.
	lookupHook func()
}

// NewServer builds a Server; see Options for the zero-value defaults.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:  opts,
		admit: newAdmitter(opts.MaxConcurrent, opts.MaxQueue, opts.ShedThreshold),
		cost:  newCostModel(),
		cache: newLRU(opts.CacheSize),
		colls: make(map[string]*collection),
		wals:  make(map[string]*collWAL),
	}
	s.stats.init(opts.LatencyWindow)
	return s
}

// newCollection wires a fresh snapshot with the registry's reference.
func (s *Server) newCollection(name string, version uint64, fp string, db *relation.Database) *collection {
	c := &collection{name: name, version: version, fingerprint: fp, db: db,
		probs: newProblemCache(s.opts.ProblemCacheSize)}
	c.refs.Store(1)
	s.stats.snapshots(1)
	return c
}

// pin takes a reference on a snapshot resolved under mu.
func (c *collection) pin() { c.refs.Add(1) }

// unpin drops a reference; the last one retires the snapshot.
func (s *Server) unpin(c *collection) {
	if c != nil && c.refs.Add(-1) == 0 {
		s.stats.snapshots(-1)
	}
}

// SetCollection registers db under name. Replacing a collection with
// different contents bumps its version and purges its cached results;
// reloading content-identical data (same Fingerprint) is idempotent — the
// version and the cache entries survive, so routine reloads keep a warm
// cache. The server stores a private copy-on-write clone, so the caller may
// keep mutating its copy. For incremental changes prefer MutateCollection,
// which keeps unaffected cache entries and prepared problems warm.
func (s *Server) SetCollection(name string, db *relation.Database) CollectionInfo {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	clone := db.Clone()
	fp := clone.Fingerprint()
	s.mu.Lock()
	old := s.colls[name]
	if old != nil && old.fingerprint == fp {
		s.mu.Unlock()
		return old.info()
	}
	version := uint64(1)
	if old != nil {
		version = old.version + 1
	}
	c := s.newCollection(name, version, fp, clone)
	s.colls[name] = c
	s.mu.Unlock()
	s.unpin(old)
	s.cache.purge(name)
	// Persist the full load as a snapshot (superseding any logged
	// deltas). SetCollection predates durability and has no error
	// return, so a persistence failure degrades — the collection serves
	// from memory and the WALErrors counter fires — instead of failing
	// the load; MutateCollection, which can refuse, enforces the strict
	// contract.
	if cw, err := s.walFor(name); err != nil {
		s.stats.walError()
	} else if cw != nil {
		if err := s.persistSnapshot(cw, fp, clone); err != nil {
			s.stats.walError()
		}
	}
	return c.info()
}

// MutateCollection applies an incremental delta to a collection: the new
// version shares every unmutated relation with the old one (copy-on-write),
// its fingerprint is combined from incrementally maintained per-relation
// hashes rather than rehashed, cached results whose relations were not
// touched stay valid (their content-addressed keys do not move), and
// prepared problems over unaffected relations carry over warm. In-flight
// solves keep their pinned snapshot. A delta that changes nothing is
// idempotent: same version, nothing purged.
func (s *Server) MutateCollection(name string, delta relation.Delta) (DeltaInfo, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.RLock()
	old := s.colls[name]
	s.mu.RUnlock()
	if old == nil {
		return DeltaInfo{}, &NotFoundError{What: "collection", Name: name}
	}
	// Writers are serialized by writeMu, so old cannot be replaced from
	// under us; apply the delta outside mu so readers keep resolving.
	res, err := old.db.ApplyDelta(delta)
	if err != nil {
		return DeltaInfo{}, &RequestError{Err: err}
	}
	info := DeltaInfo{Mutated: res.Mutated, Upserted: res.Upserted, Deleted: res.Deleted}
	if len(res.Mutated) == 0 {
		info.CollectionInfo = old.info()
		return info, nil
	}
	// Durability before visibility: the delta is appended and fsynced
	// before the new version installs, so an acknowledged mutation
	// survives a crash. A WAL failure rejects the delta outright
	// (503 on the wire) — acknowledging it un-logged would be a silent
	// lie about durability.
	cw, werr := s.walFor(name)
	if werr == nil && cw != nil {
		werr = s.walAppend(cw, old, delta)
	}
	if werr != nil {
		s.stats.walError()
		return DeltaInfo{}, &UnavailableError{Err: fmt.Errorf("delta not durable: %w", werr)}
	}
	c := s.newCollection(name, old.version+1, res.DB.Fingerprint(), res.DB)
	mutated := make(map[string]struct{}, len(res.Mutated))
	for _, n := range res.Mutated {
		mutated[n] = struct{}{}
	}
	c.probs.carryOver(old.probs, mutated, res.DB)
	// Advance the affected warm problems before install (so the first
	// reader of the new version finds them prepared), classify and repair
	// the dependent cache entries after (so a put racing the install is
	// caught — exactly the window the old purge covered).
	plans := s.planRepairs(c, res, mutated, old.probs.entries())
	s.mu.Lock()
	s.colls[name] = c
	s.mu.Unlock()
	s.unpin(old)
	s.repairCache(c, mutated, plans)
	s.stats.delta(res.Upserted + res.Deleted)
	if cw != nil {
		s.maybeCompact(cw, c)
	}
	info.CollectionInfo = c.info()
	return info, nil
}

// RemoveCollection drops a collection and purges its cached results; it
// reports whether the collection existed.
func (s *Server) RemoveCollection(name string) bool {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	old := s.colls[name]
	delete(s.colls, name)
	s.mu.Unlock()
	s.unpin(old)
	s.cache.purge(name)
	s.removeWAL(name)
	return old != nil
}

// Collections lists the registered collections sorted by name.
func (s *Server) Collections() []CollectionInfo {
	s.mu.RLock()
	infos := make([]CollectionInfo, 0, len(s.colls))
	for _, c := range s.colls {
		infos = append(infos, c.info())
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Collection returns the named collection's description.
func (s *Server) Collection(name string) (CollectionInfo, bool) {
	s.mu.RLock()
	c, ok := s.colls[name]
	s.mu.RUnlock()
	if !ok {
		return CollectionInfo{}, false
	}
	return c.info(), true
}

// FlushCache drops every cached result.
func (s *Server) FlushCache() { s.cache.flush() }

// putIfCurrent stores a solve result only while it is valid for the
// currently registered collection: the snapshot it was computed on is
// still installed, the installed version's relevant-relation fingerprint
// matches the one the key was built over (the solve straddled a delta that
// did not touch its relations), or — the repair pipeline's put-side twin —
// the installed version's warm problem proves the spec's candidate set is
// unchanged, in which case the result is resealed under the current
// fingerprint instead of dropped (see resealKey). The check and the put
// share the server lock with the writers' install step, so a stale key can
// never be left squatting an LRU slot: either this put sees the old
// snapshot gone and its fingerprint moved (and reseals or skips), or the
// writer's repair pass runs after the put and classifies the entry.
func (s *Server) putIfCurrent(c *collection, v validated, res *Result) {
	warmed, ok := s.tryPut(c, v, res)
	if ok || warmed == nil {
		return
	}
	// The spec was not warm on the installed version, so the reseal could
	// not be judged. Prepare it there — work the next miss for this spec
	// would pay anyway, now shared through the problem cache — and retry
	// the put once with the warm problem in hand.
	if _, err := s.sharedProblem(warmed, v).get(); err != nil {
		return
	}
	s.tryPut(c, v, res)
}

// tryPut is one putIfCurrent attempt under the server lock. When the put
// is neither stored nor provably dead — the installed version moved but
// has no warm problem for the spec to judge a reseal by — it returns that
// version (non-nil) with ok=false so the caller can warm it and retry.
func (s *Server) tryPut(c *collection, v validated, res *Result) (warm *collection, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur := s.colls[c.name]
	if cur == nil {
		return nil, false
	}
	key := v.key
	candFP := ""
	if res.repair != nil {
		candFP = res.repair.candFP
	}
	if cur != c {
		curFP := cur.relevant(v.deps, v.keyAll)
		if curFP != v.relFP {
			ok, fp := s.resealKey(cur, v, res)
			if !ok {
				if fp == resealNotWarm && res.repair != nil && !v.keyAll {
					return cur, false
				}
				return nil, false
			}
			key = sealCacheKey(c.name, curFP, v.keyRest)
			candFP = fp
		}
	}
	var ri *repairInfo
	if res.repair != nil && !v.keyAll {
		m := *res.repair
		m.candFP = candFP
		ri = &repairInfo{canon: v.canon, repairMeta: m}
	}
	s.cache.put(key, &lruEntry{
		coll:    c.name,
		deps:    v.deps,
		depsAll: v.keyAll,
		keyRest: v.keyRest,
		repair:  ri,
		res:     res,
	})
	return nil, true
}

// resealNotWarm flags (in the fingerprint slot) that resealKey could not
// decide because the spec has no warm problem on the current version.
const resealNotWarm = "\x00not-warm"

// resealKey decides whether a result whose relations mutated while it was
// being computed is still exactly the answer the current version would
// give: the current warm problem for the same canonical spec must carry a
// candidate set fingerprint equal to the one the result was computed over
// (every score is a function of the candidate tuple itself, so an equal
// set means an equal answer), and nothing outside the candidate set may
// influence the result (no compatibility query or custom predicates). On
// success it returns the current candidate fingerprint for the entry's
// repair metadata; on failure the fingerprint slot is resealNotWarm when
// warming the spec could still rescue the put.
func (s *Server) resealKey(cur *collection, v validated, res *Result) (bool, string) {
	if v.keyAll || res.repair == nil {
		return false, ""
	}
	sp, ok := cur.probs.peek(v.canon)
	if !ok || !sp.ready() {
		return false, resealNotWarm
	}
	prob := sp.prob
	if prob.Qc != nil || prob.CompatFn != nil || prob.Prune != nil {
		return false, ""
	}
	fp, err := prob.CandidatesFingerprint()
	if err != nil || fp != res.repair.candFP {
		return false, ""
	}
	return true, fp
}

// snapshot resolves and pins the collection a request targets; the caller
// must unpin it when the request completes.
func (s *Server) snapshot(name string) (*collection, error) {
	s.mu.RLock()
	c, ok := s.colls[name]
	if ok {
		c.pin()
	}
	s.mu.RUnlock()
	if !ok {
		return nil, &NotFoundError{What: "collection", Name: name}
	}
	return c, nil
}

// validated is a request that passed the shared admission pipeline: op
// normalized and tallied, RPP selection decoded, spec canonicalized with
// its relation dependencies, and the result-cache key built over the
// content the request reads. Solve and SolveBatch both admit requests
// through validateRequest, so the two paths cannot drift.
//
// Two dependency scopes coexist: deps/depsAll describe what the *problem*
// (candidates, bound tables) reads — the carry-over test for prepared
// problems — while keyAll widens the *result's* identity to the whole
// database when the answer can depend on more than those relations. For
// most operations the scopes agree. The relax ops discretize their gap
// levels over the columns the selected relaxation points touch
// (relax.CandidateLevels), which the query's own relations cover, so they
// are keyed precisely too — except when a point falls back to the whole
// active domain (a formula position under active-domain semantics, a
// derived-predicate column), where keyAll widens the key so a delta
// anywhere invalidates the entry, exactly as correctness requires.
type validated struct {
	req     Request
	sel     []core.Package // RPP candidate selection, decoded once
	canon   string         // canonical problem spec (problem-sharing key)
	deps    []string       // extensional relations the spec reads
	depsAll bool           // the spec may read the whole database (FO)
	keyAll  bool           // the result depends on the whole database
	relFP   string         // content fingerprint the result is keyed on
	keyRest string         // request half of the key (op, backend, params)
	key     string         // result-cache key
}

// validateRequest runs the admission pipeline for one request against a
// resolved collection snapshot. Errors are client faults (RequestError).
func (s *Server) validateRequest(coll *collection, req Request) (validated, error) {
	op, err := normalizeOp(req.Op)
	if err != nil {
		return validated{}, err
	}
	req.Op = op
	backend, err := normalizeBackend(req.Backend, op)
	if err != nil {
		return validated{}, err
	}
	req.Backend = backend
	prio, err := normalizePriority(req.Priority)
	if err != nil {
		return validated{}, err
	}
	req.Priority = prio
	if err := validateShard(req); err != nil {
		return validated{}, err
	}
	s.stats.op(op)
	var sel []core.Package
	if op == OpDecide {
		if sel, err = decodeSelection(req.Selection); err != nil {
			return validated{}, &RequestError{Err: err}
		}
	}
	canon, deps, exhaustive, err := req.Spec.CanonicalAndDeps()
	if err != nil {
		return validated{}, &RequestError{Err: err}
	}
	v := validated{req: req, sel: sel, canon: canon, deps: deps, depsAll: !exhaustive}
	v.keyAll = v.depsAll
	if (op == OpRelax || op == OpRelaxPlan) && !v.depsAll {
		precise, err := relaxDepsPrecise(coll.db, req, v.deps)
		if err != nil {
			return validated{}, err
		}
		if !precise {
			v.keyAll = true
		}
	}
	v.relFP = coll.relevant(v.deps, v.keyAll)
	v.keyRest = requestKeyRest(req, sel, canon)
	v.key = sealCacheKey(coll.name, v.relFP, v.keyRest)
	return v, nil
}

// validateShard checks the shard fields' applicability: a well-formed
// ShardSpec, on a shardable operation (the four whole-space package
// walks — decide/relax/relaxplan/adjust are search loops whose partials
// do not merge associatively), on the branch-and-bound backend (the
// shard is a set of engine subtree roots; the PB compilation has no
// such decomposition), with a finite FloorHint only where a pruning
// floor exists (topk/maxbound).
func validateShard(req Request) error {
	if req.Shard == nil {
		if req.FloorHint != nil {
			return &RequestError{Err: fmt.Errorf("floorHint requires a shard")}
		}
		return nil
	}
	if err := req.Shard.Validate(); err != nil {
		return &RequestError{Err: err}
	}
	switch req.Op {
	case OpTopK, OpMaxBound, OpCount, OpExists:
	default:
		return &RequestError{Err: fmt.Errorf("op %q cannot be sharded", req.Op)}
	}
	if req.Backend != BackendBB {
		return &RequestError{Err: fmt.Errorf("backend %q cannot be sharded", req.Backend)}
	}
	if req.FloorHint != nil {
		if req.Op != OpTopK && req.Op != OpMaxBound {
			return &RequestError{Err: fmt.Errorf("floorHint applies to ops %q and %q only", OpTopK, OpMaxBound)}
		}
		if math.IsNaN(*req.FloorHint) || math.IsInf(*req.FloorHint, 0) {
			return &RequestError{Err: fmt.Errorf("floorHint must be finite")}
		}
	}
	return nil
}

// relaxDepsPrecise reports whether every relaxation point a relax request
// selects resolves its gap levels from columns of the spec's own relations
// (relax.LevelDeps), so the request can be content-addressed on deps alone.
// A point that falls back to the whole active domain — or reads a relation
// outside the dependency set, which current discovery never produces but is
// checked defensively — forces whole-database keying. Out-of-range point
// indices are reported precise here; Build rejects them at solve time with
// a proper client error.
func relaxDepsPrecise(db *relation.Database, req Request, deps []string) (bool, error) {
	if req.Relax == nil {
		return true, nil
	}
	q, err := parser.Parse(req.Spec.Query)
	if err != nil {
		return false, &RequestError{Err: err}
	}
	points, err := relax.Points(q)
	if err != nil {
		return false, &RequestError{Err: err}
	}
	depSet := make(map[string]struct{}, len(deps))
	for _, d := range deps {
		depSet[d] = struct{}{}
	}
	for _, ps := range req.Relax.Points {
		if ps.Index < 0 || ps.Index >= len(points) {
			continue
		}
		rels, precise := relax.LevelDeps(db, points[ps.Index])
		if !precise {
			return false, nil
		}
		for _, r := range rels {
			if _, ok := depSet[r]; !ok {
				return false, nil
			}
		}
	}
	return true, nil
}

// Solve answers one request: cache lookup, then a coalesced, pool-bounded
// engine run with the request's deadline. The result is exactly what the
// corresponding library call returns (see runSolve); Cached and ElapsedMS
// describe how this particular call was served.
func (s *Server) Solve(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	s.stats.startRequest()
	defer s.stats.endRequest()

	coll, err := s.snapshot(req.Collection)
	if err != nil {
		s.stats.addError()
		return nil, err
	}
	defer s.unpin(coll)
	v, err := s.validateRequest(coll, req)
	if err != nil {
		s.stats.addError()
		return nil, err
	}
	req, key := v.req, v.key

	if !req.NoCache {
		if res, hit, ok := s.cacheLookup(coll, v); ok {
			s.stats.lookup(true)
			s.stats.observe(time.Since(start))
			return s.respond(res, hit, true, start), nil
		}
		// Only consulted lookups count toward the hit rate; NoCache
		// traffic opted out and must not skew it.
		s.stats.lookup(false)
	}

	fkey := flightKey(key, req.NoCache)
	// The deadline starts here — before coalescing and pool admission — so
	// time spent waiting on another request's flight or on a saturated
	// pool counts against it: short-deadline requests shed load instead of
	// piling up behind long solves.
	solveCtx, cancel := s.withDeadline(ctx, req)
	defer cancel()
	res, shared, err := s.flight.do(solveCtx, fkey, func() (*Result, error) {
		release, err := s.admitSolve(solveCtx, coll.name, v)
		if err != nil {
			return nil, err
		}
		defer release()
		r, err := s.runSolve(solveCtx, coll, v)
		if err == nil && !req.NoCache {
			s.putIfCurrent(coll, v, r)
		}
		return r, err
	})
	if shared {
		s.stats.addCoalesced()
	}
	// Errored solves are observed too: deadline hits are exactly the slow
	// tail the latency percentiles exist to expose.
	s.stats.observe(time.Since(start))
	if err != nil {
		s.countFailure(err)
		return nil, err
	}
	return s.respond(res, coll, false, start), nil
}

// countFailure tallies a failed solve. Sheds (OverloadError) are
// deliberate load management, counted by the admitter into the Shed
// stat, not into Errors — an operator alerting on error rate must not
// page on the server doing exactly what it was configured to do.
func (s *Server) countFailure(err error) {
	var ov *OverloadError
	if errors.As(err, &ov) {
		return
	}
	s.stats.addError()
}

// cacheLookup consults the result cache for a validated request and
// returns the hit together with the collection version whose key hit. On
// a miss it gives the lookup one second chance under the currently
// installed version's fingerprint: the request may have validated against
// a snapshot a delta superseded in the meantime, while the repair pipeline
// moved the wanted entry to its resealed key. Serving that entry is sound
// — it is the current version's exact answer, and a request racing a
// delta may be answered on either side of it — provided the response
// names the current version, which is why that version is returned.
func (s *Server) cacheLookup(coll *collection, v validated) (*Result, *collection, bool) {
	if s.lookupHook != nil {
		s.lookupHook()
	}
	if res, ok := s.cache.get(v.key); ok {
		return res, coll, true
	}
	s.mu.RLock()
	cur := s.colls[coll.name]
	s.mu.RUnlock()
	if cur == nil || cur == coll {
		return nil, nil, false
	}
	key := sealCacheKey(coll.name, cur.relevant(v.deps, v.keyAll), v.keyRest)
	if key == v.key {
		return nil, nil, false
	}
	res, ok := s.cache.get(key)
	return res, cur, ok
}

func (s *Server) respond(res *Result, coll *collection, cached bool, start time.Time) *Response {
	return &Response{
		Result:      *res,
		Collection:  coll.name,
		Version:     coll.version,
		Fingerprint: coll.fingerprint,
		Cached:      cached,
		ElapsedMS:   float64(time.Since(start)) / float64(time.Millisecond),
	}
}

// flightKey derives the coalescing (and batch-dedup) key from a cache
// key: NoCache requests fly under a separate key, because a caching
// request must never end up behind a leader whose result will not be
// stored (its waiters would lose the entry they asked for), and — in a
// batch — a NoCache item must never be answered through a cached twin.
// Every site that groups identical requests must use this one helper.
func flightKey(key string, noCache bool) string {
	if noCache {
		return key + "!nocache"
	}
	return key
}

// admitSolve takes a slot on the bounded solve pool through the
// cost-aware admission controller: the request is priced by the cost
// model, classified cheap or expensive against CheapThreshold, and
// queued under its collection's fairness budget (see admitter). The
// returned release function must be called when the solve finishes. A
// shed returns *OverloadError; a context cancellation returns ctx.Err().
func (s *Server) admitSolve(ctx context.Context, tenant string, v validated) (func(), error) {
	pred := s.cost.predict(costFamily(v))
	cheap := pred <= s.opts.CheapThreshold
	if err := s.admit.acquire(ctx, tenant, pred, cheap, priorityClass(v.req.Priority)); err != nil {
		return nil, err
	}
	return func() { s.admit.release(pred) }, nil
}

// withDeadline applies the request's (or the server's default) timeout.
func (s *Server) withDeadline(ctx context.Context, req Request) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// workers resolves the engine worker count for a request.
func (s *Server) workers(req Request) int {
	if req.Workers > 0 {
		return req.Workers
	}
	return s.opts.EngineWorkers
}

// buildProblem constructs (and instruments) the Problem a request's spec
// describes over a collection snapshot.
func (s *Server) buildProblem(coll *collection, ps spec.ProblemSpec) (*core.Problem, error) {
	prob, err := ps.Build(coll.db)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	prob.Counters = &s.eng
	// Read provenance feeds the delta repair pipeline: with the table in
	// hand a mutation can advance the prepared problem and repair cached
	// results instead of discarding both. Prepare pays one lineage record
	// per candidate for it; untraceable (FO) specs ignore the flag.
	prob.TrackProvenance = true
	return prob, nil
}

// sharedProblem resolves the prepared problem a validated request solves
// on: the collection's cache keyed by canonical spec, so equal specs —
// within a batch, across batches, across single solves, and across deltas
// that left their relations untouched — share one warmed Problem.
func (s *Server) sharedProblem(coll *collection, v validated) *preparedProblem {
	ps := v.req.Spec
	return coll.probs.getOrCreate(v.canon, func() *preparedProblem {
		return &preparedProblem{
			deps:    v.deps,
			depsAll: v.depsAll,
			build:   func() (*core.Problem, error) { return s.buildProblem(coll, ps) },
		}
	})
}

// runSolve executes the request on its backend: the collection's shared
// prepared Problem for the spec, then the operation dispatch — to the
// engine, or through the problem's shared PB compilation for backend "pbo".
func (s *Server) runSolve(ctx context.Context, coll *collection, v validated) (*Result, error) {
	return s.runSolveOn(ctx, s.sharedProblem(coll, v), v)
}

// runSolveOn is the instrumented solve shared by the single and batch
// paths: it resolves the prepared problem, runs the operation, and
// trains the cost model with the observed wall time and — for the
// branch-and-bound backend — the solve's own engine node count, read
// from a private counter set (core.Problem.WithCounters) and flushed
// into the shared totals afterwards. The predicted-vs-actual ratio
// lands in the calibration histogram the /metrics endpoint exports.
func (s *Server) runSolveOn(ctx context.Context, sp *preparedProblem, v validated) (*Result, error) {
	prob, err := sp.get()
	if err != nil {
		return nil, err
	}
	family := costFamily(v)
	pred := s.cost.predict(family)
	if s.solveHook != nil {
		s.solveHook(v)
	}
	start := time.Now()
	var res *Result
	var nodes float64
	if v.req.Backend == BackendPBO {
		comp, cerr := sp.getPBO(&s.pbo)
		if cerr != nil {
			return nil, cerr
		}
		res, err = s.solvePBOOp(ctx, comp, prob, v.req, v.sel)
	} else {
		var priv core.EngineCounters
		res, err = s.solveOp(ctx, prob.WithCounters(&priv), v.req, v.sel)
		nodes = float64(priv.Nodes.Load())
		priv.AddTo(&s.eng)
	}
	// Errored solves train the model too: a deadline hit cost at least
	// its wall time, and pricing the family low because its solves keep
	// timing out would invert the admission order.
	actual := time.Since(start)
	s.cost.observe(family, actual, nodes)
	s.stats.observeSolve(actual, pred)
	return res, err
}

// solveOp executes the request's operation on a prebuilt problem. Every arm
// calls exactly the solver the public pkgrec API wraps, so daemon answers
// and library answers cannot drift apart; the engine's serial/parallel
// equivalence guarantees make the worker count invisible in results (only
// the choice of RPP witness can vary, and any returned witness is genuine).
// The problem is shared (read-only, after Prepare) across solves.
func (s *Server) solveOp(ctx context.Context, prob *core.Problem, req Request, sel []core.Package) (*Result, error) {
	if req.Shard != nil {
		return s.solveShardOp(ctx, prob, req)
	}
	workers := s.workers(req)
	res := &Result{Op: req.Op}
	var metaSel []core.Package // the selection repair metadata describes
	switch req.Op {
	case OpTopK:
		sel, ok, err := prob.FindTopKParallelCtx(ctx, workers)
		if err != nil {
			return nil, err
		}
		res.OK = ok
		for _, n := range sel {
			res.Packages = append(res.Packages, packageResult(prob, n))
		}
		metaSel = sel
	case OpDecide:
		ok, wit, err := prob.DecideTopKParallelCtx(ctx, sel, workers)
		if err != nil {
			return nil, err
		}
		res.OK = ok
		if wit != nil {
			w := packageResult(prob, *wit)
			res.Witness = &w
		}
		metaSel = sel
	case OpMaxBound:
		b, ok, err := prob.MaxBoundParallelCtx(ctx, workers)
		if err != nil {
			return nil, err
		}
		res.OK = ok
		if ok {
			res.Bound = &b
		}
	case OpCount:
		n, err := prob.CountValidParallelCtx(ctx, req.Spec.Bound, workers)
		if err != nil {
			return nil, err
		}
		res.OK = true
		res.Count = &n
	case OpExists:
		ok, err := prob.ExistsKValidParallelCtx(ctx, prob.K, req.Spec.Bound, workers)
		if err != nil {
			return nil, err
		}
		res.OK = ok
	case OpRelax:
		if req.Relax == nil {
			return nil, &RequestError{Err: fmt.Errorf("op %q needs a relax spec", req.Op)}
		}
		inst, err := req.Relax.Build(prob)
		if err != nil {
			return nil, &RequestError{Err: err}
		}
		rel, ok, err := relax.DecideCtx(ctx, inst, workers)
		if err != nil {
			return nil, err
		}
		res.OK = ok
		if ok {
			res.Gap = &rel.Gap
			res.RelaxedQuery = rel.Query.String()
		}
	case OpRelaxPlan:
		if req.Relax == nil {
			return nil, &RequestError{Err: fmt.Errorf("op %q needs a relax spec", req.Op)}
		}
		inst, err := req.Relax.Build(prob)
		if err != nil {
			return nil, &RequestError{Err: err}
		}
		sugs, err := relax.SuggestCtx(ctx, inst, maxSuggestions(req), workers)
		if err != nil {
			return nil, err
		}
		res.OK = len(sugs) > 0
		for _, sg := range sugs {
			sr := SuggestionResult{Gap: sg.Gap, RelaxedQuery: sg.Relaxation.Query.String()}
			for _, c := range sg.Relaxation.Choices {
				if c.D == 0 {
					continue
				}
				sr.Choices = append(sr.Choices, fmt.Sprintf("%s d=%s", c.Point.String(), spec.CanonFloat(c.D)))
			}
			if sg.Witness != nil {
				w := packageResult(prob, *sg.Witness)
				sr.Witness = &w
			}
			res.Suggestions = append(res.Suggestions, sr)
		}
		if res.OK {
			res.Gap = &res.Suggestions[0].Gap
			res.RelaxedQuery = res.Suggestions[0].RelaxedQuery
		}
	case OpAdjust:
		if req.Adjust == nil {
			return nil, &RequestError{Err: fmt.Errorf("op %q needs an adjust spec", req.Op)}
		}
		inst := req.Adjust.Build(prob, req.Extra)
		delta, ok, err := adjust.DecideCtx(ctx, inst, workers)
		if err != nil {
			return nil, err
		}
		res.OK = ok
		if ok {
			size := delta.Size()
			res.DeltaSize = &size
			for _, e := range delta.Edits {
				res.Delta = append(res.Delta, e.String())
			}
		}
	default:
		return nil, &RequestError{Err: fmt.Errorf("unknown op %q", req.Op)}
	}
	res.repair = buildRepairMeta(prob, req, metaSel, res)
	return res, nil
}

// solveShardOp executes a sharded operation (validateShard admitted it):
// the engine walks only the candidate subtrees the request's shard owns
// and the Result comes back Partial, carrying the shard's contribution
// in the shapes MergeShardResults consumes. Partials skip repair
// metadata — the repair proofs are whole-space arguments, so a delta to
// a dependency simply purges them — but they do cache and coalesce like
// any other result, keyed by their shard spec.
func (s *Server) solveShardOp(ctx context.Context, prob *core.Problem, req Request) (*Result, error) {
	workers := s.workers(req)
	shard := *req.Shard
	res := &Result{Op: req.Op, Partial: true}
	switch req.Op {
	case OpTopK, OpMaxBound:
		hint := math.Inf(-1)
		if req.FloorHint != nil {
			hint = *req.FloorHint
		}
		part, err := prob.FindTopKShardCtx(ctx, shard, hint, workers)
		if err != nil {
			return nil, err
		}
		res.OK = true
		for _, sp := range part.Scored {
			res.Packages = append(res.Packages, packageResult(prob, sp.Pkg))
		}
		// JSON cannot carry ±Inf; an absent floor means "no pruning floor
		// was established", which only ever happens when the shard never
		// filled a k-buffer.
		if f := part.Floor; !math.IsInf(f, 0) && !math.IsNaN(f) {
			res.ShardFloor = &f
		}
	case OpCount:
		n, err := prob.CountValidShardCtx(ctx, req.Spec.Bound, shard, workers)
		if err != nil {
			return nil, err
		}
		res.OK = true
		res.Count = &n
	case OpExists:
		n, err := prob.ExistsCountShardCtx(ctx, prob.K, req.Spec.Bound, shard, workers)
		if err != nil {
			return nil, err
		}
		res.OK = true
		res.Count = &n
	default:
		return nil, &RequestError{Err: fmt.Errorf("op %q cannot be sharded", req.Op)}
	}
	return res, nil
}

// solvePBOOp executes a package-problem operation on the spec's shared PB
// compilation. The result shapes are exactly solveOp's — the backends are
// result-identical by construction (the PB constraints are a sound
// relaxation and every model re-passes the exact filters; see internal/pbo)
// — so a "pbo" answer differs from a "bb" answer at most in the op "decide"
// witness, which is genuine under either backend. normalizeBackend already
// rejected the ops the backend does not serve.
func (s *Server) solvePBOOp(ctx context.Context, comp *pbo.Compiled, prob *core.Problem, req Request, sel []core.Package) (*Result, error) {
	res := &Result{Op: req.Op}
	var metaSel []core.Package // the selection repair metadata describes
	switch req.Op {
	case OpTopK:
		sel, ok, err := comp.FindTopKCtx(ctx)
		if err != nil {
			return nil, err
		}
		res.OK = ok
		for _, n := range sel {
			res.Packages = append(res.Packages, packageResult(prob, n))
		}
		metaSel = sel
	case OpDecide:
		ok, wit, err := comp.DecideTopKCtx(ctx, sel)
		if err != nil {
			return nil, err
		}
		res.OK = ok
		if wit != nil {
			w := packageResult(prob, *wit)
			res.Witness = &w
		}
		metaSel = sel
	case OpMaxBound:
		b, ok, err := comp.MaxBoundCtx(ctx)
		if err != nil {
			return nil, err
		}
		res.OK = ok
		if ok {
			res.Bound = &b
		}
	case OpCount:
		n, err := comp.CountValidCtx(ctx, req.Spec.Bound)
		if err != nil {
			return nil, err
		}
		res.OK = true
		res.Count = &n
	case OpExists:
		ok, err := comp.ExistsKValidCtx(ctx, prob.K, req.Spec.Bound)
		if err != nil {
			return nil, err
		}
		res.OK = ok
	default:
		return nil, &RequestError{Err: fmt.Errorf("backend %q does not support op %q", req.Backend, req.Op)}
	}
	res.repair = buildRepairMeta(prob, req, metaSel, res)
	return res, nil
}

// defaultMaxSuggestions caps op "relaxplan" output when the request does
// not choose its own limit.
const defaultMaxSuggestions = 5

// maxSuggestions normalizes the relaxplan suggestion cap; the normalized
// value is what the cache key carries, so "unset" and an explicit 5 share
// an entry.
func maxSuggestions(req Request) int {
	if req.MaxSuggestions > 0 {
		return req.MaxSuggestions
	}
	return defaultMaxSuggestions
}

func packageResult(p *core.Problem, n core.Package) PackageResult {
	tuples := make([][]any, n.Len())
	for i, t := range n.Tuples() {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = relation.ValueToJSON(v)
		}
		tuples[i] = row
	}
	return PackageResult{Tuples: tuples, Val: p.Val.Eval(n), Cost: p.Cost.Eval(n)}
}

// decodeSelection converts the wire form of an RPP candidate selection
// (packages as lists of tuples of JSON scalars) into packages.
func decodeSelection(sel [][][]any) ([]core.Package, error) {
	pkgs := make([]core.Package, len(sel))
	for i, rows := range sel {
		tuples := make([]relation.Tuple, len(rows))
		for j, row := range rows {
			t := make(relation.Tuple, len(row))
			for k, x := range row {
				v, err := relation.ValueFromJSON(x)
				if err != nil {
					return nil, fmt.Errorf("selection package %d tuple %d: %w", i, j, err)
				}
				t[k] = v
			}
			tuples[j] = t
		}
		pkgs[i] = core.NewPackage(tuples...)
	}
	return pkgs, nil
}

// cacheKey builds the canonical fingerprint a request's result is cached
// under: the collection name, the content fingerprint of the relations the
// request reads (relFP — the whole-database fingerprint for FO specs), the
// canonical problem spec (canon, the caller's spec canonicalization) plus
// the operation and its parameters. The collection version is deliberately
// absent: identity is content-addressed, so a delta that does not touch a
// request's relations leaves its key — and its cached entry — valid.
// Everything execution-related (workers, timeout, NoCache) is excluded
// too — it cannot change the answer. Queries are canonicalized by parse +
// re-render (internal/parser.Canonicalize via spec.Canonical), so
// formatting-different but equal requests share an entry.
func (s *Server) cacheKey(coll *collection, req Request, sel []core.Package, canon, relFP string) string {
	return sealCacheKey(coll.name, relFP, requestKeyRest(req, sel, canon))
}

// requestKeyRest renders the request half of the cache key — operation,
// backend, canonical spec and op parameters — without the collection name
// or content fingerprint. Cache entries keep it (lruEntry.keyRest) so the
// delta repair pipeline can reseal a surviving entry under the post-delta
// fingerprint without the original request in hand.
func requestKeyRest(req Request, sel []core.Package, canon string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s", req.Op, req.Backend, canon)
	switch req.Op {
	case OpDecide:
		keys := make([]string, len(sel))
		for i, p := range sel {
			keys[i] = p.Key()
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "|sel=%s", strings.Join(keys, "&"))
	case OpRelax:
		if req.Relax != nil {
			fmt.Fprintf(&b, "|%s", req.Relax.Canonical())
		}
	case OpRelaxPlan:
		if req.Relax != nil {
			fmt.Fprintf(&b, "|%s", req.Relax.Canonical())
		}
		fmt.Fprintf(&b, "|max=%d", maxSuggestions(req))
	case OpAdjust:
		if req.Adjust != nil {
			fmt.Fprintf(&b, "|%s", req.Adjust.Canonical())
		}
		if req.Extra != nil {
			fmt.Fprintf(&b, "|extra=%s", req.Extra.Fingerprint())
		}
	}
	// A shard partial answers a different (sub-)question than the whole
	// solve, and a floor hint changes which packages the partial reports,
	// so both are part of the result's identity.
	if req.Shard != nil {
		fmt.Fprintf(&b, "|shard=%d/%d", req.Shard.Index, req.Shard.Count)
		if req.FloorHint != nil {
			fmt.Fprintf(&b, "|floor=%s", spec.CanonFloat(*req.FloorHint))
		}
	}
	return b.String()
}

// sealCacheKey combines the collection name, the content fingerprint of
// the relations the request reads, and the request half of the key into
// the stored cache key.
func sealCacheKey(collName, relFP, keyRest string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s:%s|%s", spec.CanonString(collName), relFP, keyRest)))
	return hex.EncodeToString(sum[:])
}

// Stats returns a consistent snapshot of the service counters: everything
// statsRec guards is captured under one lock (see Stats), with the
// collection count, cache size and lock-free engine counters read around
// it.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	colls := len(s.colls)
	s.mu.RUnlock()
	st := s.stats.snapshot()
	st.Collections = colls
	st.CacheEntries = s.cache.len()
	st.EngineNodes = s.eng.Nodes.Load()
	st.EnginePackages = s.eng.Yielded.Load()
	st.EnginePruned = s.eng.Pruned.Load()
	st.EngineBoundEvals = s.eng.BoundEvals.Load()
	st.EnginePrepares = s.eng.Prepares.Load()
	st.EngineSessionResumes = s.eng.SessionResumes.Load()
	st.EngineSessionNodesSaved = s.eng.SessionNodesSaved.Load()
	st.PBOSolves, _, st.PBOPropagations, st.PBOConflicts, _, _ = s.pbo.Snapshot()
	st.AdmitExpress, st.AdmitQueued, st.Shed = s.admit.counters()
	st.QueueDepth = s.admit.queueDepth()
	st.CostFamilies = s.cost.families()
	st.WALCollections, st.WALBytes, st.WALSyncs = s.walTotals()
	return st
}
