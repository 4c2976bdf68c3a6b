package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/internal/spec"
)

// BatchRequest is N solve requests against one collection, answered as a
// unit: the collection is snapshotted once, identical sub-requests are
// deduplicated through the same canonical fingerprints the result cache
// keys on, sub-requests with equal problem specs share one prepared
// Problem (candidates evaluated and bound tables built once), and the
// sub-solves are scheduled on the bounded pool under a single whole-batch
// deadline. Items fail independently: one malformed spec or one timed-out
// solve never fails the batch.
type BatchRequest struct {
	Collection string      `json:"collection"`
	Items      []BatchItem `json:"items"`
	// TimeoutMS is the whole-batch deadline (> 0 overrides the server's
	// default timeout). Every sub-solve, including its wait for a pool
	// slot, counts against it.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// NoCache makes every item bypass the result cache (deduplication
	// still applies, among the batch's NoCache items).
	NoCache bool `json:"noCache,omitempty"`
	// Priority is the admission class every item inherits unless it sets
	// its own; see Request.Priority.
	Priority string `json:"priority,omitempty"`
}

// BatchItem is one sub-request of a batch: a Request without the
// collection (the batch names it once) and without a timeout (the batch
// carries one whole-batch deadline).
type BatchItem struct {
	Op   string           `json:"op"`
	Spec spec.ProblemSpec `json:"spec"`
	// Backend selects the solver for this item, as in Request.Backend.
	Backend   string          `json:"backend,omitempty"`
	Selection [][][]any       `json:"selection,omitempty"`
	Relax     *spec.RelaxSpec `json:"relax,omitempty"`
	// MaxSuggestions caps op "relaxplan" output, as in Request.
	MaxSuggestions int                `json:"maxSuggestions,omitempty"`
	Adjust         *spec.AdjustSpec   `json:"adjust,omitempty"`
	Extra          *relation.Database `json:"extra,omitempty"`
	Workers        int                `json:"workers,omitempty"`
	NoCache        bool               `json:"noCache,omitempty"`
	// Priority is the item's admission class; empty inherits the batch's.
	Priority string `json:"priority,omitempty"`
}

// Request lifts the item to the single-solve Request form — the form the
// cache-key and solver machinery operate on, and the request a client
// would send to /v1/solve to ask the same question outside a batch.
func (it BatchItem) Request(collection string) Request {
	return Request{
		Collection:     collection,
		Op:             it.Op,
		Spec:           it.Spec,
		Backend:        it.Backend,
		Selection:      it.Selection,
		Relax:          it.Relax,
		MaxSuggestions: it.MaxSuggestions,
		Adjust:         it.Adjust,
		Extra:          it.Extra,
		Workers:        it.Workers,
		NoCache:        it.NoCache,
		Priority:       it.Priority,
	}
}

// ItemResponse is one item's outcome. Exactly one of Result and Error is
// set; Cached and Deduped say how the item was served. A deduplicated item
// inherits the leading duplicate's successful result (cached or solved);
// a duplicate of a failed lead reports the inherited error instead, with
// Deduped unset.
type ItemResponse struct {
	Result    *Result `json:"result,omitempty"`
	Error     string  `json:"error,omitempty"`
	Cached    bool    `json:"cached,omitempty"`
	Deduped   bool    `json:"deduped,omitempty"`
	ElapsedMS float64 `json:"elapsedMs"`
	// Version names the collection version that answered the item when
	// it is not the batch's snapshot: a cache hit served under the key of
	// the version a racing delta installed. Omitted otherwise.
	Version uint64 `json:"version,omitempty"`
}

// BatchResponse summarises a batch: per-item outcomes in request order
// plus how much work the batch actually performed.
type BatchResponse struct {
	Collection string         `json:"collection"`
	Version    uint64         `json:"version"`
	Items      []ItemResponse `json:"items"`
	// Solves counts the items answered by an engine run — their own, or
	// an identical outside in-flight solve they joined (the latter also
	// surfaces in the Coalesced stat); CacheHits and Deduped count the
	// items served without one (from the result cache, or from an
	// identical item in the same batch). Errors counts failed items.
	Solves    int     `json:"solves"`
	CacheHits int     `json:"cacheHits"`
	Deduped   int     `json:"deduped"`
	Errors    int     `json:"errors"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// batchItem is the resolved execution state of one batch item. shared is
// the collection's prepared problem for the item's spec (see
// preparedProblem): batch items share it with each other, with single
// solves, and across deltas that leave their relations untouched.
type batchItem struct {
	v      validated
	shared *preparedProblem
	lead   int  // index of the first identical item; == own index for leads
	shed   bool // the lead was shed by admission (OverloadError)
}

// SolveBatch answers a batch of solve requests over one collection
// snapshot. Items are validated and fingerprinted up front; identical
// items (equal canonical cache keys) collapse onto one underlying solve;
// items whose problem specs agree share one prepared Problem; distinct
// items run concurrently, each taking a slot on the bounded solve pool,
// all under one whole-batch deadline. Item failures are isolated — the
// batch-level error is non-nil only when the collection is unknown or the
// context is already dead at entry.
func (s *Server) SolveBatch(ctx context.Context, breq BatchRequest) (*BatchResponse, error) {
	start := time.Now()
	s.stats.startBatch()
	if err := ctx.Err(); err != nil {
		s.stats.addError()
		return nil, err
	}
	coll, err := s.snapshot(breq.Collection)
	if err != nil {
		s.stats.addError()
		return nil, err
	}
	defer s.unpin(coll)
	resp := &BatchResponse{
		Collection: coll.name,
		Version:    coll.version,
		Items:      make([]ItemResponse, len(breq.Items)),
	}
	if len(breq.Items) == 0 {
		resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		return resp, nil
	}
	s.stats.addBatchItems(len(breq.Items))

	// Phase 1 (serial, cheap): admit each item through the shared
	// validation pipeline and wire up sharing — duplicates point at their
	// lead item, distinct items with equal specs share the collection's
	// prepared Problem. Deduplication keys carry the NoCache bit exactly
	// like flight keys do: a NoCache item must never be answered through
	// a cached twin, and a caching item must never collapse onto a lead
	// whose result is not stored.
	items := make([]*batchItem, len(breq.Items))
	leads := map[string]int{} // dedup key -> lead item index
	fail := func(i int, err error) {
		resp.Items[i] = ItemResponse{Error: err.Error()}
		s.stats.addError()
	}
	for i, bit := range breq.Items {
		req := bit.Request(breq.Collection)
		req.NoCache = req.NoCache || breq.NoCache
		if req.Priority == "" {
			req.Priority = breq.Priority
		}
		v, err := s.validateRequest(coll, req)
		if err != nil {
			fail(i, err)
			continue
		}
		it := &batchItem{v: v, lead: i}
		dedupKey := flightKey(v.key, v.req.NoCache)
		if lead, ok := leads[dedupKey]; ok {
			it.lead = lead
		} else {
			leads[dedupKey] = i
			it.shared = s.sharedProblem(coll, v)
		}
		items[i] = it
	}

	// Phase 2: run the lead items concurrently on the bounded pool under
	// the whole-batch deadline.
	bctx, cancel := s.withDeadline(ctx, Request{TimeoutMS: breq.TimeoutMS})
	defer cancel()
	var wg sync.WaitGroup
	for i, it := range items {
		if it == nil || it.lead != i {
			continue
		}
		wg.Add(1)
		go func(i int, it *batchItem) {
			defer wg.Done()
			itemStart := time.Now()
			s.stats.itemStart()
			defer s.stats.itemEnd()
			res, hit, err := s.solveBatchItem(bctx, coll, it)
			s.stats.observe(time.Since(itemStart))
			ir := ItemResponse{
				Cached:    hit != nil,
				ElapsedMS: float64(time.Since(itemStart)) / float64(time.Millisecond),
			}
			if hit != nil && hit != coll {
				ir.Version = hit.version
			}
			if err != nil {
				var ov *OverloadError
				it.shed = errors.As(err, &ov)
				s.countFailure(err)
				ir.Error = err.Error()
			} else {
				ir.Result = res
			}
			resp.Items[i] = ir
		}(i, it)
	}
	wg.Wait()

	// Phase 3: fan lead outcomes out to their duplicates. Results are
	// immutable and shared by pointer, exactly as cache hits are. Only a
	// successful share counts as deduplication (here and in the stats); a
	// duplicate of a failed lead reports the inherited error and counts
	// as an error, so batch-response tallies and /v1/stats agree.
	for i, it := range items {
		if it == nil || it.lead == i {
			continue
		}
		lead := resp.Items[it.lead]
		if lead.Error != "" {
			resp.Items[i] = ItemResponse{Error: lead.Error}
			// A duplicate of a shed lead inherits the shed, not an
			// error — exactly as coalesced followers of a shed single
			// solve do.
			if !items[it.lead].shed {
				s.stats.addError()
			}
			continue
		}
		resp.Items[i] = ItemResponse{
			Result:  lead.Result,
			Cached:  lead.Cached,
			Deduped: true,
			Version: lead.Version,
		}
		s.stats.addDeduped()
	}
	for _, ir := range resp.Items {
		switch {
		case ir.Error != "":
			resp.Errors++
		case ir.Deduped:
			resp.Deduped++
		case ir.Cached:
			resp.CacheHits++
		default:
			resp.Solves++
		}
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp, nil
}

// solveBatchItem serves one lead item: result-cache lookup, then a
// coalesced, pool-bounded run of the shared prepared problem. The flight
// key is the same one single solves use, so a batch item also coalesces
// with identical /v1/solve traffic in flight at the same time. Besides
// the result it returns the collection version whose cache entry
// answered the item, nil when the item was solved.
func (s *Server) solveBatchItem(ctx context.Context, coll *collection, it *batchItem) (*Result, *collection, error) {
	v := it.v
	if !v.req.NoCache {
		if res, hit, ok := s.cacheLookup(coll, v); ok {
			s.stats.lookup(true)
			return res, hit, nil
		}
		s.stats.lookup(false)
	}
	res, shared, err := s.flight.do(ctx, flightKey(v.key, v.req.NoCache), func() (*Result, error) {
		release, err := s.admitSolve(ctx, coll.name, v)
		if err != nil {
			return nil, err
		}
		defer release()
		r, err := s.runSolveOn(ctx, it.shared, v)
		if err == nil && !v.req.NoCache {
			s.putIfCurrent(coll, v, r)
		}
		return r, err
	})
	if shared {
		s.stats.addCoalesced()
	}
	return res, nil, err
}
