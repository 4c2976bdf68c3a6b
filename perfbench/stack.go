package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/relation"
	"repro/internal/serve"
)

// conns is the number of client connections, and of closed-loop workers.
const conns = 2

// Collection names on the daemon.
const (
	catalogName = "catalog"
	sideName    = "ingest"
)

// stack is one serving stack: a serve.Server behind serve.NewHandler on
// a loopback listener, and the serve.Client that drives it.
type stack struct {
	srv    *serve.Server
	hs     *http.Server
	tr     *http.Transport
	served chan struct{} // closed when the HTTP server has stopped serving
	client *serve.Client
}

func startStack() (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Options{})
	st := &stack{
		srv:    srv,
		hs:     &http.Server{Handler: serve.NewHandler(srv.Service()), ReadHeaderTimeout: 10 * time.Second},
		tr:     &http.Transport{MaxIdleConnsPerHost: conns},
		served: make(chan struct{}),
	}
	st.client = &serve.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: st.tr}}
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return st, nil
}

// stop closes the listener and every connection, waits for the serving
// goroutine to return, and closes the server.
func (st *stack) stop() {
	_ = st.hs.Close() // the listener error, if any, is Serve's to report
	<-st.served
	st.tr.CloseIdleConnections()
	_ = st.srv.Close() // memory-only: nothing to flush
}

// session is a set-up serving stack with its workload inputs.
type session struct {
	w       workload
	st      *stack
	catalog version // the read collection as uploaded
	side    version // the side collection as uploaded (if the writes go there)
	pool    []experiments.WorkloadItem
	sels    [][]core.Package // decoded decide selections, by pool index
	stream  []int32
	// offset is the stream position the timed phase starts at.
	offset int
	// warm holds the answers given during warm-up, checked with the rest.
	warm []record
	fps  map[uint64]string
	// expect holds the library answers on the catalog when no install
	// changes it.
	expect *expectation
	// log keeps the session's delta installs.
	log *deltaLog
}

// setUp starts a stack, uploads the catalog, samples the pool and warms
// the daemon up; the returned duration is the set-up time.
func setUp(ctx context.Context, w workload, seed int64) (*session, time.Duration, error) {
	start := time.Now()
	st, err := startStack()
	if err != nil {
		return nil, 0, err
	}
	s := &session{w: w, st: st, fps: map[uint64]string{}, log: newDeltaLog(w)}
	if err := s.load(ctx, seed); err != nil {
		st.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

func (s *session) load(ctx context.Context, seed int64) error {
	db := experiments.WorkloadDB(s.w.nPOI)
	info, err := s.st.client.PutCollection(ctx, catalogName, db)
	if err != nil {
		return fmt.Errorf("uploading the catalog: %w", err)
	}
	s.catalog = version{n: info.Version, fp: info.Fingerprint, db: db}
	if !s.w.deltaOnCatalog {
		side := experiments.WorkloadDB(s.w.nPOI)
		info, err := s.st.client.PutCollection(ctx, sideName, side)
		if err != nil {
			return fmt.Errorf("uploading the side collection: %w", err)
		}
		s.side = version{n: info.Version, fp: info.Fingerprint, db: side}
	}
	rng := rand.New(rand.NewSource(seed))
	s.pool, err = experiments.SampleWorkload(rng, poolSize, db, nil)
	if err != nil {
		return fmt.Errorf("sampling the pool: %w", err)
	}
	s.sels = make([][]core.Package, len(s.pool))
	for i, it := range s.pool {
		if it.Op == serve.OpDecide {
			if s.sels[i], err = decodeSelection(it.Selection); err != nil {
				return fmt.Errorf("pool item %d: %w", i, err)
			}
		}
	}
	s.stream = makeStream(rng, len(s.pool), streamLen, s.w.repeat)
	return s.warmUp(ctx)
}

// primeCalls is the number of solve calls replayed after the warm-up
// proper, so connections and the runtime are warm when timing starts.
const primeCalls = 256

// warmUp fills the daemon: either every pool item once (the result
// cache for warm-hit, the prepared problems for cold-mix) followed by
// primeCalls calls of the stream, or the stream's first warmItems items.
// Both run on conns workers without delta installs.
func (s *session) warmUp(ctx context.Context) error {
	var positions [][]int32
	if s.w.warmPool {
		for i := range s.pool {
			positions = append(positions, []int32{int32(i)})
		}
		for c := 0; c < primeCalls; c++ {
			positions = append(positions, s.callItems(int64(c)))
		}
	} else {
		for c := 0; c*s.w.batch < s.w.warmItems; c++ {
			positions = append(positions, s.callItems(int64(c)))
		}
		s.offset = s.w.warmItems
	}
	ws := make([]*worker, conns)
	done := make(chan struct{})
	next := make(chan []int32)
	for i := range ws {
		ws[i] = newWorker(time.Now(), 0, nil)
		go func(w *worker) {
			defer func() { done <- struct{}{} }()
			for idxs := range next {
				s.solve(ctx, w, idxs)
			}
		}(ws[i])
	}
	for _, p := range positions {
		next <- p
	}
	close(next)
	for range ws {
		<-done
	}
	for _, w := range ws {
		if w.firstErr != nil {
			return fmt.Errorf("warm-up: %w", w.firstErr)
		}
		s.warm = append(s.warm, w.recs...)
		for v, fp := range w.fps {
			s.fps[v] = fp
		}
	}
	return nil
}

// callItems returns the pool indices of solve call c, counted from the
// session's stream offset.
func (s *session) callItems(c int64) []int32 {
	idxs := make([]int32, s.w.batch)
	for j := range idxs {
		idxs[j] = s.stream[(s.offset+int(c)*s.w.batch+j)%len(s.stream)]
	}
	return idxs
}

// batchItem builds the batch form of a pool item.
func (s *session) batchItem(idx int32) serve.BatchItem {
	it := s.pool[idx]
	return serve.BatchItem{Op: it.Op, Spec: it.Spec, Selection: it.Selection, Relax: it.Relax}
}

// request builds the /v1/solve request of a pool item.
func (s *session) request(idx int32) serve.Request {
	req := s.batchItem(idx).Request(catalogName)
	req.NoCache = s.w.noCache
	return req
}

// solve issues one solve call for the given pool items and records the
// latency and every answer in w.
func (s *session) solve(ctx context.Context, w *worker, idxs []int32) {
	call := w.begin()
	start := time.Now()
	since := s.log.since()
	var failed int
	if len(idxs) == 1 {
		resp, err := s.st.client.Solve(ctx, s.request(idxs[0]))
		if err != nil {
			failed = 1
			w.fail(err)
		} else {
			w.answer(call, idxs[0], resp.Version, resp.Fingerprint, s.log.span(since), &resp.Result)
		}
	} else {
		breq := serve.BatchRequest{Collection: catalogName, NoCache: s.w.noCache}
		for _, i := range idxs {
			breq.Items = append(breq.Items, s.batchItem(i))
		}
		resp, err := s.st.client.SolveBatch(ctx, breq)
		switch {
		case err != nil:
			failed = len(idxs)
			w.fail(err)
		default:
			seen := s.log.span(since)
			for j, ir := range resp.Items {
				if ir.Error != "" || ir.Result == nil {
					failed++
					w.fail(fmt.Errorf("batch item: %s", ir.Error))
					continue
				}
				w.answer(call, idxs[j], resp.Version, "", seen, ir.Result)
			}
		}
	}
	w.end(start, failed)
}

// install is one delta install: the delta, its place in the install
// order, what the daemon reported, and how long the ApplyDelta call took
// (not counting the wait for an install of the other worker).
type install struct {
	seq   int
	delta relation.Delta
	info  serve.DeltaInfo
	err   error
	took  time.Duration
}

// deltaLog serializes the installs of a run and keeps them in order:
// whichever worker reaches an install point takes the next
// experiments.RepairChurnDelta, so upsert and delete alternate no matter
// which worker installs. It counts the installs begun and acknowledged,
// so that a call can tell which installs it may have raced.
type deltaLog struct {
	coll         string
	mu           sync.Mutex
	installs     []install
	begun, acked atomic.Uint32
}

// installSpan is the range of install counts a call may have been
// answered on: from the installs acknowledged before it was sent to the
// installs begun before its response arrived. The daemon takes its
// snapshot in between, and a call that raced installs may be answered on
// any version inside the range (see oracle.go).
type installSpan struct{ lo, hi uint32 }

// since is read when a call is sent.
func (l *deltaLog) since() uint32 { return l.acked.Load() }

// span closes the install span of a call sent at since.
func (l *deltaLog) span(since uint32) installSpan {
	return installSpan{lo: since, hi: l.begun.Load()}
}

func newDeltaLog(w workload) *deltaLog {
	coll := sideName
	if w.deltaOnCatalog {
		coll = catalogName
	}
	return &deltaLog{coll: coll}
}

// apply installs the next delta through svc.
func (l *deltaLog) apply(ctx context.Context, svc serve.Service) install {
	l.mu.Lock()
	defer l.mu.Unlock()
	in := install{seq: len(l.installs), delta: experiments.RepairChurnDelta(len(l.installs))}
	l.begun.Add(1)
	t0 := time.Now()
	in.info, in.err = svc.ApplyDelta(ctx, l.coll, in.delta)
	in.took = time.Since(t0)
	l.acked.Add(1)
	l.installs = append(l.installs, in)
	return in
}

// peek returns the delta the next apply will install.
func (l *deltaLog) peek() relation.Delta {
	l.mu.Lock()
	defer l.mu.Unlock()
	return experiments.RepairChurnDelta(len(l.installs))
}

// done returns the installs made so far, in order.
func (l *deltaLog) done() []install {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]install(nil), l.installs...)
}
