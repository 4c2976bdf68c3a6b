package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/internal/serve"
)

// The traced run. It replays the stream the untraced runs measure in
// three phases of equal length:
//
//   A. the closed loop without tracing — the baseline the tracing
//      overhead is measured against;
//   B. the same closed loop with a span around every call, and the
//      daemon's counters (serve.Stats) and the Go runtime's (MemStats)
//      read before and after — the exact per-item counts;
//   C. a replay of the following items, one at a time, that calls each
//      layer's public entry point in turn with a span around each call —
//      the per-layer times — while one closed-loop worker keeps the
//      daemon as busy as in A and B. Allocation counts are taken first,
//      on their own.
//
// Spans are recorded from the benchmark's own code, around calls into
// the layers; nothing inside the daemon is instrumented. In phase C the
// spans of one item are consecutive re-executions of the work the
// daemon does nested inside one request, so each span's Parent names the
// layer that performs that work inside the daemon rather than an
// enclosing time interval, and self times are differences of those
// replays.

// span is one recorded call.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"` // hit or miss for solves, the op for searches
	Item   int64  `json:"item"`          // the item's id (runner.itemID); a call's span takes its first item's
	Start  int64  `json:"start"`         // ns since the run's origin
	End    int64  `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records the spans of one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(name string, parent int32, item int64) int32 {
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Name: name, Item: item,
		Start: time.Since(t.origin).Nanoseconds()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32, tag string) {
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
	t.spans[id].Tag = tag
}

// allocs counts the heap allocations of fn. It must run alone: the
// counter is process-wide.
func allocs(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

func cacheTag(cached bool) string {
	if cached {
		return "hit"
	}
	return "miss"
}

// replayStats are phase C's side measurements.
type replayStats struct {
	items                                int
	reqBytes, respBytes                  []float64
	canonAllocs, hitAllocs, searchAllocs []float64
	problems                             []string
}

// allocItems is the number of pool items whose allocations phase C
// counts before its timed part.
const allocItems = 64

// replay is phase C: the items and installs following phase B, one at a
// time, each through every layer, while one closed-loop worker keeps the
// second connection busy as in the timed phases — an idle daemon answers
// an HTTP call more slowly than a busy one, whose threads are awake.
func (rn *runner) replay(ctx context.Context, dur time.Duration, walDir string) (*phase, *tracer, *replayStats, error) {
	s := rn.s
	tr := &tracer{origin: rn.origin}
	rs := &replayStats{}

	wal, _, err := relation.OpenWAL(filepath.Join(walDir, "delta.wal"), nil)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scratch WAL: %w", err)
	}
	defer wal.Close()

	// The library side solves on the current content of the read
	// collection and applies deltas to the current content of the
	// written one: catch both up with the installs of phases A and B.
	// Only this goroutine installs from here on, so the mirrors stay
	// current.
	reads := &chain{cur: s.catalog}
	writes := &chain{cur: s.side}
	if s.w.deltaOnCatalog {
		writes = reads
	}
	writes.installs = rn.log.done()
	if err := writes.seek(writes.cur.n + uint64(len(writes.installs))); err != nil {
		return nil, nil, nil, fmt.Errorf("catching the mirror up: %w", err)
	}
	if err := rn.countAllocs(ctx, reads.cur.db, rs); err != nil {
		return nil, nil, nil, err
	}

	start := time.Now()
	deadline := start.Add(dur)
	w := newWorker(start, dur, s.expect)
	bg := newWorker(start, dur, s.expect)
	ph := &phase{workers: []*worker{w, bg}, dur: dur}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The background worker replays the stream from its middle, so
		// that it neither repeats the replayed calls nor installs.
		for c := int64(streamLen / 2); time.Now().Before(deadline); c++ {
			s.solve(ctx, bg, s.callItems(c))
		}
	}()
	for time.Now().Before(deadline) {
		k := rn.next.Add(1) - 1
		install, call := rn.sched.op(k)
		if install {
			if err := rn.replayInstall(ctx, tr, rn.itemID(k, 0), wal, writes, w); err != nil {
				rs.problems = append(rs.problems, err.Error())
			}
			continue
		}
		// Each item is one call; each answer it records counts as one
		// attempted item, and an error as one more, failed.
		for j, idx := range s.callItems(call) {
			t0 := time.Now()
			failed := 0
			if err := rn.replayItem(ctx, tr, rn.itemID(k, j), idx, reads.cur.db, w, w.begin(), rs); err != nil {
				failed = 1
				w.fail(err)
			}
			w.end(t0, failed)
			rs.items++
		}
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph, tr, rs, nil
}

// countAllocs counts, with nothing else running, the heap allocations of
// spec canonicalization, of an in-process cache hit and of the library
// search, on the first allocItems pool items.
func (rn *runner) countAllocs(ctx context.Context, db *relation.Database, rs *replayStats) error {
	s := rn.s
	for idx := int32(0); idx < min(allocItems, int32(len(s.pool))); idx++ {
		it := s.pool[idx]
		req := s.request(idx)
		req.NoCache = false
		var err error
		rs.canonAllocs = append(rs.canonAllocs, allocs(func() { _, _, _, err = req.Spec.CanonicalAndDeps() }))
		if err != nil {
			return err
		}
		if _, err := s.st.srv.Solve(ctx, req); err != nil {
			return err
		}
		var resp *serve.Response
		a := allocs(func() { resp, err = s.st.srv.Solve(ctx, req) })
		if err != nil {
			return err
		}
		if resp.Cached {
			rs.hitAllocs = append(rs.hitAllocs, a)
		}
		prob, err := it.Spec.Build(db)
		if err != nil {
			return err
		}
		if err := prob.Prepare(); err != nil {
			return err
		}
		rs.searchAllocs = append(rs.searchAllocs, allocs(func() { _, err = solveOp(ctx, prob, it, s.sels[idx]) }))
		if err != nil {
			return err
		}
	}
	return nil
}

// replayItem sends one item over HTTP, then through the in-process
// server on its miss and its hit path, then through the library layers
// the miss path runs. The answers go to the verification like any other.
func (rn *runner) replayItem(ctx context.Context, tr *tracer, item int64, idx int32,
	db *relation.Database, w *worker, call int32, rs *replayStats) error {

	s := rn.s
	it := s.pool[idx]
	req := s.request(idx)
	root := tr.begin("item", -1, item)
	defer tr.end(root, it.Op)

	httpSpan := tr.begin("serve.http", root, item)
	since := s.log.since()
	resp, err := s.st.client.Solve(ctx, req)
	if err != nil {
		tr.end(httpSpan, "")
		return err
	}
	tr.end(httpSpan, cacheTag(resp.Cached))
	w.answer(call, idx, resp.Version, resp.Fingerprint, s.log.span(since), &resp.Result)
	if b, err := json.Marshal(req); err == nil {
		rs.reqBytes = append(rs.reqBytes, float64(len(b)))
	}
	if b, err := json.Marshal(resp); err == nil {
		rs.respBytes = append(rs.respBytes, float64(len(b)))
	}

	// In process: the miss path (NoCache), then the hit path. The hit
	// request is solved once untimed first unless the HTTP call was a
	// cached one.
	miss, hit := req, req
	miss.NoCache, hit.NoCache = true, false
	missSpan := tr.begin("serve.miss", httpSpan, item)
	mresp, err := s.st.srv.Solve(ctx, miss)
	tr.end(missSpan, "miss")
	if err != nil {
		return err
	}
	w.answer(call, idx, mresp.Version, mresp.Fingerprint, s.log.span(since), &mresp.Result)
	if !resp.Cached {
		if _, err := s.st.srv.Solve(ctx, hit); err != nil {
			return err
		}
	}
	sp := tr.begin("serve.hit", httpSpan, item)
	hresp, err := s.st.srv.Solve(ctx, hit)
	tr.end(sp, "")
	if err != nil {
		return err
	}
	if hresp.Cached {
		tr.spans[sp].Tag = "hit"
	}
	w.answer(call, idx, hresp.Version, hresp.Fingerprint, s.log.span(since), &hresp.Result)

	sp = tr.begin("spec.canon", missSpan, item)
	_, _, _, err = req.Spec.CanonicalAndDeps()
	tr.end(sp, "")
	if err != nil {
		return err
	}
	sp = tr.begin("spec.build", missSpan, item)
	prob, err := req.Spec.Build(db)
	tr.end(sp, "")
	if err != nil {
		return err
	}
	sp = tr.begin("core.prepare", missSpan, item)
	err = prob.Prepare()
	tr.end(sp, "")
	if err != nil {
		return err
	}
	name := "core.search"
	if it.Op == serve.OpRelax {
		name = "relax.suggest"
	}
	sp = tr.begin(name, missSpan, item)
	_, err = solveOp(ctx, prob, it, s.sels[idx])
	tr.end(sp, it.Op)
	return err
}

// replayInstall applies the next delta with the library, appends it to
// a scratch WAL with fsync, and installs it in the in-process server.
func (rn *runner) replayInstall(ctx context.Context, tr *tracer, item int64, wal *relation.WAL,
	writes *chain, w *worker) error {

	delta := rn.log.peek()
	root := tr.begin("delta", -1, item)
	sp := tr.begin("relation.apply_delta", root, item)
	res, err := writes.cur.db.ApplyDelta(delta)
	tr.end(sp, "")
	if err != nil {
		return err
	}
	sp = tr.begin("relation.wal_append", root, item)
	_, err = wal.Append(delta)
	tr.end(sp, "")
	if err != nil {
		return err
	}
	sp = tr.begin("serve.repair", root, item)
	in := rn.log.apply(ctx, rn.s.st.srv.Service())
	tr.end(sp, "")
	tr.end(root, "")
	if in.err != nil {
		err = in.err
	} else {
		writes.installs = append(writes.installs, in)
		writes.next++
		writes.cur = version{n: in.info.Version, fp: res.DB.Fingerprint(), db: res.DB}
		if in.info.Fingerprint != writes.cur.fp {
			err = fmt.Errorf("install %d: daemon fingerprint %s, mirror %s", in.seq, in.info.Fingerprint, writes.cur.fp)
		}
	}
	w.installed(in.took, err)
	return err
}

// writeSpans writes every span of the traced run as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
