// Package cluster is the solver-fleet coordination layer: a Router that
// implements serve.Service over a set of pkgrecd nodes, so a fleet
// presents the exact wire surface of a single daemon (cmd/pkgrecr wraps
// a Router in serve.NewHandler, the same front end cmd/pkgrecd wraps its
// local server in).
//
// The router does three jobs:
//
//   - placement: collections are partitioned across nodes by rendezvous
//     hashing on the collection name (rendezvous.go), with a replication
//     factor; writes land on the acting primary and fan out to replicas
//     synchronously over the WAL stream (replicate.go);
//   - sharded solves: collections named in Options.ShardSolves answer
//     topk/maxbound/count/exists by fanning candidate-space shards
//     (core.ShardSpec on the wire) across the replica set and merging
//     the partials with serve.MergeShardResults — byte-identical to a
//     single-node solve by the merge contract;
//   - failover: every read retries down the replica set on retryable
//     errors (the serve error taxonomy classifies them across the HTTP
//     hop), with per-node consecutive-failure health accounting
//     surfaced in RouterStats and /metrics.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/serve"
)

// Node is one fleet member: a name (its placement identity — stable
// across restarts, or collections move) and its service handle, either
// a *serve.Client for a remote daemon or (*serve.Server).Service() for
// an in-process one.
type Node struct {
	Name string
	Svc  serve.Service
}

// Options configures a Router.
type Options struct {
	// Nodes is the fleet, in any order; placement depends only on the
	// names. At least one node is required.
	Nodes []Node
	// Replicas is each collection's replica-set size (clamped to
	// [1, len(Nodes)]). 1 means partition-only: every collection lives
	// on exactly its home node.
	Replicas int
	// ShardSolves maps collection names to a shard fan-out width w ≥ 2:
	// shardable solves against those collections are split into w
	// candidate-space shards spread over the replica set and merged at
	// the router. Widths below 2 are ignored. Sharding a collection
	// only helps when Replicas gives it more than one owner to spread
	// over, but any width is correct on any replica count — all shards
	// of a full partition merge to the single-node answer wherever they
	// ran.
	ShardSolves map[string]int
	// FailThreshold is how many consecutive failures mark a node down
	// (default 3). Down nodes are deprioritized, not abandoned: any
	// success resets them.
	FailThreshold int
}

// Router coordinates a pkgrecd fleet behind the serve.Service
// interface. All methods are safe for concurrent use.
type Router struct {
	nodes    []*node
	replicas int
	shards   map[string]int

	mu      sync.Mutex
	writers map[string]*sync.Mutex // per-collection write serialization
	lastSeq map[string]uint64      // replica sync cursors, see replicate.go
	lastLag map[string]uint64      // records applied at the last catch-up

	stats routerCounters
}

// node is one member plus its health accounting.
type node struct {
	name string
	svc  serve.Service

	threshold int

	mu          sync.Mutex
	consecFails int
	failures    uint64
	lastErr     string
}

func (n *node) isDown() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.consecFails >= n.threshold
}

func (n *node) markOK() {
	n.mu.Lock()
	n.consecFails = 0
	n.lastErr = ""
	n.mu.Unlock()
}

func (n *node) markFailed(err error) {
	n.mu.Lock()
	n.consecFails++
	n.failures++
	n.lastErr = err.Error()
	n.mu.Unlock()
}

// New builds a Router over the fleet. The node list is fixed for the
// router's lifetime; placement is a pure function of the node names.
func New(opts Options) (*Router, error) {
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	threshold := opts.FailThreshold
	if threshold <= 0 {
		threshold = 3
	}
	r := &Router{
		replicas: opts.Replicas,
		shards:   make(map[string]int),
		writers:  make(map[string]*sync.Mutex),
		lastSeq:  make(map[string]uint64),
		lastLag:  make(map[string]uint64),
	}
	seen := make(map[string]bool)
	for _, n := range opts.Nodes {
		if n.Name == "" || n.Svc == nil {
			return nil, fmt.Errorf("cluster: node needs a name and a service")
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		r.nodes = append(r.nodes, &node{name: n.Name, svc: n.Svc, threshold: threshold})
	}
	if r.replicas < 1 {
		r.replicas = 1
	}
	if r.replicas > len(r.nodes) {
		r.replicas = len(r.nodes)
	}
	for name, w := range opts.ShardSolves {
		if w >= 2 {
			r.shards[name] = w
		}
	}
	return r, nil
}

var _ serve.Service = (*Router)(nil)
var _ serve.MetricsRenderer = (*Router)(nil)

// writer returns collection's write lock: writes (put, delta, remove)
// serialize per collection so the primary mutation and its replica
// fan-out form one atomic step from the router's point of view, which
// is what keeps the replica cursors (lastSeq) coherent.
func (r *Router) writer(collection string) *sync.Mutex {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.writers[collection]
	if m == nil {
		m = &sync.Mutex{}
		r.writers[collection] = m
	}
	return m
}

// failover runs op against the owner set in health-then-rank order,
// advancing past nodes that fail retryably (per the serve error
// taxonomy: overloaded, unavailable, internal — which transport faults
// classify as). Non-retryable errors (bad request, not found, context
// expiry) return immediately: another replica would answer the same.
func (r *Router) failover(ctx context.Context, owners []*node, op func(n *node) error) error {
	var lastErr error
	for i, n := range ordered(owners) {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := op(n)
		if err == nil {
			n.markOK()
			return nil
		}
		if !serve.RetryableError(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		n.markFailed(err)
		lastErr = err
		if i < len(owners)-1 {
			r.stats.add(&r.stats.failovers, 1)
		}
	}
	return lastErr
}

// Solve answers one request: sharded fan-out when the collection is
// configured for it and the request is shardable, a primary-with-
// failover route otherwise.
func (r *Router) Solve(ctx context.Context, req serve.Request) (*serve.Response, error) {
	owners := r.owners(req.Collection)
	if w := r.shards[req.Collection]; w >= 2 && shardable(req) {
		return r.solveSharded(ctx, req, owners, w)
	}
	var resp *serve.Response
	err := r.failover(ctx, owners, func(n *node) error {
		var err error
		resp, err = n.svc.Solve(ctx, req)
		return err
	})
	return resp, err
}

// shardable reports whether a request may be split into candidate-space
// shards: the partitionable ops on the branch-and-bound backend, and
// not already a shard sub-request (a caller doing its own coordination
// routes like any other solve).
func shardable(req serve.Request) bool {
	if req.Shard != nil {
		return false
	}
	switch req.Backend {
	case "", serve.BackendBB:
	default:
		return false
	}
	switch req.Op {
	case serve.OpTopK, serve.OpMaxBound, serve.OpCount, serve.OpExists:
		return true
	}
	return false
}

// errVersionSkew marks a fan-out whose partials straddled a collection
// mutation: the shards answered against different content fingerprints,
// so the merge would mix two collections. The solve retries against the
// settled content.
var errVersionSkew = errors.New("cluster: shard partials straddled a collection mutation")

// solveSharded fans one solve out as w candidate-space shards across
// the replica set and merges the partials. Shard 0 runs first as the
// pilot: when it fills a whole k-buffer its ShardFloor is a proven
// global floor (k packages at least that good exist on shard 0 alone),
// so the sibling shards launch with it as their FloorHint and prune
// from the first node of their walks. Partials must agree on the
// collection version; a skewed set — a delta landed mid-fan-out — is
// retried, bounded, once the write that moved the version has finished
// syncing the replica set. A fan-out still skewed after the last retry
// fails as a retryable UnavailableError.
func (r *Router) solveSharded(ctx context.Context, req serve.Request, owners []*node, w int) (*serve.Response, error) {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		resp, err := r.fanout(ctx, req, owners, w)
		if errors.Is(err, errVersionSkew) {
			if attempt == 3 {
				return nil, &serve.UnavailableError{Err: err}
			}
			r.stats.add(&r.stats.versionRetries, 1)
			if err := r.settle(ctx, req.Collection); err != nil {
				return nil, err
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		r.stats.add(&r.stats.fanoutSolves, 1)
		r.stats.add(&r.stats.mergedPartials, uint64(w))
		resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		return resp, nil
	}
}

// settle waits until no write to collection is in flight. A skewed
// fan-out means a write is still syncing the replica set under the
// collection's writer lock, and a retry launched before it finishes
// straddles it again. The waiter goroutine exits once it has taken and
// released the lock, that is when the writes queued ahead of it finish.
func (r *Router) settle(ctx context.Context, collection string) error {
	w := r.writer(collection)
	done := make(chan struct{})
	go func() {
		//lint:ignore SA2001 the empty critical section waits out the writer
		w.Lock()
		w.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Router) fanout(ctx context.Context, req serve.Request, owners []*node, w int) (*serve.Response, error) {
	targets := ordered(owners)

	solveShard := func(i int, hint *float64) (*serve.Response, error) {
		sub := req
		sub.Shard = &core.ShardSpec{Index: i, Count: w}
		sub.FloorHint = hint
		var resp *serve.Response
		// Rotate the failover order per shard so the fan-out spreads
		// over the replica set instead of piling onto the primary.
		rotated := make([]*node, 0, len(targets))
		for j := 0; j < len(targets); j++ {
			rotated = append(rotated, targets[(i+j)%len(targets)])
		}
		err := r.failover(ctx, rotated, func(n *node) error {
			var err error
			resp, err = n.svc.Solve(ctx, sub)
			return err
		})
		return resp, err
	}

	pilot, err := solveShard(0, nil)
	if err != nil {
		return nil, err
	}
	var hint *float64
	if req.Op == serve.OpTopK || req.Op == serve.OpMaxBound {
		// The pilot's floor is only a sound global hint when its own
		// partial proves k packages at or above it exist.
		if pilot.OK && len(pilot.Packages) == req.Spec.K && pilot.ShardFloor != nil {
			hint = pilot.ShardFloor
		}
	}

	parts := make([]*serve.Response, w)
	parts[0] = pilot
	var wg sync.WaitGroup
	errs := make([]error, w)
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], errs[i] = solveShard(i, hint)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	results := make([]*serve.Result, w)
	for i, p := range parts {
		// Content identity, not version: per-node version counters
		// drift under replication (a snapshot-seeded replica restarts
		// its counter), but the fingerprint names the collection
		// content wherever it lives.
		if p.Fingerprint != pilot.Fingerprint {
			return nil, errVersionSkew
		}
		pr := p.Result
		results[i] = &pr
	}
	merged, err := serve.MergeShardResults(req.Op, req.Spec.K, results)
	if err != nil {
		return nil, err
	}
	return &serve.Response{
		Result:      *merged,
		Collection:  pilot.Collection,
		Version:     pilot.Version,
		Fingerprint: pilot.Fingerprint,
	}, nil
}

// SolveBatch routes a whole batch to the collection's replica set with
// failover; batches are not shard-split (their items already share
// prepared problems and dedup on one node, which sharding would break
// apart).
func (r *Router) SolveBatch(ctx context.Context, breq serve.BatchRequest) (*serve.BatchResponse, error) {
	var resp *serve.BatchResponse
	err := r.failover(ctx, r.owners(breq.Collection), func(n *node) error {
		var err error
		resp, err = n.svc.SolveBatch(ctx, breq)
		return err
	})
	return resp, err
}

// PutCollection installs a collection on its replica set: the acting
// primary first, then each remaining owner is synchronized from it over
// the WAL stream. The put fails only when no owner accepts it; a
// replica that cannot be synchronized is marked failed and left for the
// next write or read-failover to repair.
func (r *Router) PutCollection(ctx context.Context, name string, db *relation.Database) (serve.CollectionInfo, error) {
	w := r.writer(name)
	w.Lock()
	defer w.Unlock()
	owners := r.owners(name)
	var info serve.CollectionInfo
	var primary *node
	err := r.failover(ctx, owners, func(n *node) error {
		var err error
		info, err = n.svc.PutCollection(ctx, name, db)
		if err == nil {
			primary = n
		}
		return err
	})
	if err != nil {
		return serve.CollectionInfo{}, err
	}
	r.syncReplicas(ctx, primary, owners, name)
	return info, nil
}

// ApplyDelta applies a delta on the acting primary and synchronizes the
// replica set from its WAL stream before returning, so a read routed to
// any owner after the call sees the mutation.
func (r *Router) ApplyDelta(ctx context.Context, name string, delta relation.Delta) (serve.DeltaInfo, error) {
	w := r.writer(name)
	w.Lock()
	defer w.Unlock()
	owners := r.owners(name)
	var info serve.DeltaInfo
	var primary *node
	err := r.failover(ctx, owners, func(n *node) error {
		var err error
		info, err = n.svc.ApplyDelta(ctx, name, delta)
		if err == nil {
			primary = n
		}
		return err
	})
	if err != nil {
		return serve.DeltaInfo{}, err
	}
	r.syncReplicas(ctx, primary, owners, name)
	return info, nil
}

// GetCollection describes a collection, failing over down the replica
// set.
func (r *Router) GetCollection(ctx context.Context, name string) (serve.CollectionInfo, error) {
	var info serve.CollectionInfo
	err := r.failover(ctx, r.owners(name), func(n *node) error {
		var err error
		info, err = n.svc.GetCollection(ctx, name)
		return err
	})
	return info, err
}

// RemoveCollection drops a collection from every owner. Owners that
// never held it (a replica that missed the install) are fine; the call
// is NotFound only when no owner held it.
func (r *Router) RemoveCollection(ctx context.Context, name string) error {
	w := r.writer(name)
	w.Lock()
	defer w.Unlock()
	removed := false
	var lastErr error
	for _, n := range r.owners(name) {
		err := n.svc.RemoveCollection(ctx, name)
		switch {
		case err == nil:
			n.markOK()
			removed = true
		case serve.ErrorCode(err) == serve.CodeNotFound:
			n.markOK()
		default:
			n.markFailed(err)
			lastErr = err
		}
		r.dropCursors(n.name, name)
	}
	if removed {
		return nil
	}
	if lastErr != nil {
		return lastErr
	}
	return &serve.NotFoundError{What: "collection", Name: name}
}

// Collections lists the fleet's collections: the union across nodes,
// deduplicated by name, preferring each collection's highest-ranked
// reachable owner (whose copy is authoritative).
func (r *Router) Collections(ctx context.Context) ([]serve.CollectionInfo, error) {
	byNode := make(map[string][]serve.CollectionInfo)
	reachable := 0
	for _, n := range r.nodes {
		infos, err := n.svc.Collections(ctx)
		if err != nil {
			n.markFailed(err)
			continue
		}
		n.markOK()
		reachable++
		byNode[n.name] = infos
	}
	if reachable == 0 {
		return nil, &serve.UnavailableError{Err: errors.New("cluster: no node reachable")}
	}
	seen := make(map[string]bool)
	var out []serve.CollectionInfo
	for _, n := range r.nodes {
		for _, info := range byNode[n.name] {
			if seen[info.Name] {
				continue
			}
			seen[info.Name] = true
			best := info
			for _, owner := range r.owners(info.Name) {
				if infos, ok := byNode[owner.name]; ok {
					found := false
					for _, oi := range infos {
						if oi.Name == info.Name {
							best = oi
							found = true
							break
						}
					}
					if found {
						break
					}
				}
			}
			out = append(out, best)
		}
	}
	sortCollections(out)
	return out, nil
}

// FlushCache drops the result cache on every reachable node.
func (r *Router) FlushCache(ctx context.Context) error {
	var lastErr error
	for _, n := range r.nodes {
		if err := n.svc.FlushCache(ctx); err != nil {
			n.markFailed(err)
			lastErr = err
		} else {
			n.markOK()
		}
	}
	return lastErr
}

// Health is live while any node is: a degraded fleet still answers
// (possibly every collection, with replication), so the router reports
// unavailable only when nothing behind it does.
func (r *Router) Health(ctx context.Context) error {
	var lastErr error
	for _, n := range r.nodes {
		if err := n.svc.Health(ctx); err != nil {
			n.markFailed(err)
			lastErr = err
		} else {
			n.markOK()
			return nil
		}
	}
	return &serve.UnavailableError{Err: fmt.Errorf("cluster: no healthy node: %w", lastErr)}
}
