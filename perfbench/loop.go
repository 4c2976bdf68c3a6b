package main

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

var inf = math.Inf(1)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// record is one answer the daemon gave: which pool item, on which
// collection version, the digest of the decided answer, and the installs
// its call may have raced.
type record struct {
	call int32 // index of the solve call in its worker's call list
	answerKey
}

// answerKey is what the oracle judges an answer by.
type answerKey struct {
	idx     int32
	seen    installSpan
	version uint64
	digest  uint64
}

// hist counts latencies in buckets of histStep relative width, keyed by
// latKey. A run keeps counts, not samples, so that its own bookkeeping
// stays the same size however many operations it completes.
type hist map[int32]int

const histStep = 0.001

// infKey is the bucket of failed operations.
const infKey = math.MaxInt32

func latKey(d time.Duration) int32 {
	us := max(float64(d)/float64(time.Microsecond), 0.001)
	return int32(math.Floor(math.Log(us) / math.Log1p(histStep)))
}

// percentile is the nearest-rank percentile in ms, at the geometric middle
// of its bucket (0 for an empty histogram, inf when it falls on a failure).
func (h hist) percentile(p float64) float64 {
	n := 0
	keys := make([]int32, 0, len(h))
	for k, c := range h {
		n += c
		keys = append(keys, k)
	}
	if n == 0 {
		return 0
	}
	slices.Sort(keys)
	rank := max(int(p*float64(n)+0.5), 1)
	for _, k := range keys {
		if rank -= h[k]; rank <= 0 {
			if k == infKey {
				return inf
			}
			return math.Exp((float64(k)+0.5)*math.Log1p(histStep)) / 1000
		}
	}
	return inf
}

func (h hist) add(o hist) {
	for k, c := range o {
		h[k] += c
	}
}

// window is what completed in one interval of a phase's timed length.
type window struct {
	items, failed            int
	installs, failedInstalls int
	lat, deltaLat            hist
}

func newWindow() window { return window{lat: hist{}, deltaLat: hist{}} }

// callRef locates a recorded call's latency, so a wrong answer found by
// the verification pass can turn it into a failure.
type callRef struct {
	win    uint8
	key    int32
	failed bool
}

// expectation is the library's answer to every pool item on a collection
// version that no install changes. With it a worker checks each answer as
// it arrives instead of recording it for the verification pass.
type expectation struct {
	version uint64
	fp      string
	digests []uint64
}

// worker is the tally of one closed-loop worker, by window.
type worker struct {
	start  time.Time     // of the phase
	span   time.Duration // window length; 0 puts everything in one window
	expect *expectation
	wins   []window
	// cur counts the items of the open solve call.
	cur struct{ items, failed int }
	// Recording mode (expect == nil): every answer, and the calls.
	recs     []record
	calls    []callRef
	fps      map[uint64]string // the fingerprint each version was reported with
	firstErr error
	spans    []span
}

func newWorker(start time.Time, dur time.Duration, expect *expectation) *worker {
	w := &worker{start: start, span: dur / windowsPerRun, expect: expect, fps: map[uint64]string{}}
	w.wins = make([]window, windowsPerRun)
	for i := range w.wins {
		w.wins[i] = newWindow()
	}
	return w
}

func (w *worker) fail(err error) {
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// window returns the index of the window the present instant falls in.
func (w *worker) window(now time.Time) int {
	if w.span <= 0 {
		return 0
	}
	return min(int(now.Sub(w.start)/w.span), windowsPerRun-1)
}

// begin opens a solve call and returns its id.
func (w *worker) begin() int32 {
	w.cur.items, w.cur.failed = 0, 0
	return int32(len(w.calls))
}

// answer takes an answer of the open call on the given collection
// version; fp is the fingerprint the response named, if it named one,
// and seen the installs the call may have raced.
func (w *worker) answer(call int32, idx int32, version uint64, fp string, seen installSpan, r *serve.Result) {
	w.cur.items++
	if e := w.expect; e != nil {
		if version != e.version || (fp != "" && fp != e.fp) || digest(r) != e.digests[idx] {
			w.cur.failed++
		}
		return
	}
	w.recs = append(w.recs, record{call: call, answerKey: answerKey{idx: idx, seen: seen, version: version, digest: digest(r)}})
	if _, ok := w.fps[version]; fp != "" && !ok {
		w.fps[version] = fp
	}
}

// end closes the open call, begun at t0, adding failed items that never
// got an answer.
func (w *worker) end(t0 time.Time, failed int) {
	now := time.Now()
	win := &w.wins[w.window(now)]
	w.cur.items += failed
	w.cur.failed += failed
	win.items += w.cur.items
	win.failed += w.cur.failed
	key := latKey(now.Sub(t0))
	if w.cur.failed > 0 {
		key = infKey
	}
	win.lat[key]++
	if w.expect == nil {
		w.calls = append(w.calls, callRef{win: uint8(w.window(now)), key: key, failed: key == infKey})
	}
}

// installed records a delta install that took took.
func (w *worker) installed(took time.Duration, err error) {
	win := &w.wins[w.window(time.Now())]
	win.installs++
	key := latKey(took)
	if err != nil {
		win.failedInstalls++
		key = infKey
		w.fail(err)
	}
	win.deltaLat[key]++
}

// runner runs a session's closed loop. Its operation counter carries
// over from phase to phase, so consecutive phases replay one stream.
type runner struct {
	s     *session
	sched schedule
	log   *deltaLog
	next  atomic.Int64
	// origin is the time base of every span of the run.
	origin time.Time
}

func newRunner(s *session) (*runner, error) {
	sched, err := newSchedule(s.w)
	if err != nil {
		return nil, err
	}
	return &runner{s: s, sched: sched, log: s.log, origin: time.Now()}, nil
}

// itemID identifies the j-th item of the call or install the operation
// counter numbered k: unique within a run.
func (rn *runner) itemID(k int64, j int) int64 { return k*int64(rn.sched.batch) + int64(j) }

// phase is the outcome of one timed closed-loop phase: it was to last
// dur, and its last operation completed elapsed after it started.
type phase struct {
	workers []*worker
	dur     time.Duration
	elapsed time.Duration
}

// loop runs conns workers in a closed loop for dur: each issues its next
// operation — a solve call or a delta install — only after the previous
// one completed. With traced set every operation is recorded as a span.
func (rn *runner) loop(ctx context.Context, dur time.Duration, traced bool) *phase {
	start := time.Now()
	deadline := start.Add(dur)
	ph := &phase{workers: make([]*worker, conns), dur: dur}
	var wg sync.WaitGroup
	for i := range ph.workers {
		w := newWorker(start, dur, rn.s.expect)
		ph.workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := rn.next.Add(1) - 1
				install, call := rn.sched.op(k)
				t0 := time.Now()
				name := "serve.http.solve"
				if install {
					name = "serve.http.delta"
					in := rn.log.apply(ctx, rn.s.st.client)
					w.installed(in.took, in.err)
				} else {
					if rn.sched.batch > 1 {
						name = "serve.http.batch"
					}
					rn.s.solve(ctx, w, rn.s.callItems(call))
				}
				if traced {
					w.spans = append(w.spans, span{ID: int32(len(w.spans)), Parent: -1, Name: name, Item: rn.itemID(k, 0),
						Start: t0.Sub(rn.origin).Nanoseconds(), End: time.Since(rn.origin).Nanoseconds()})
				}
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// mark counts the wrong answers the verification found as failed items,
// and their calls as failed calls.
func (ph *phase) mark(v *verdict) {
	for _, w := range ph.workers {
		for _, r := range w.recs {
			if !v.wrong[r.answerKey] {
				continue
			}
			ref := &w.calls[r.call]
			win := &w.wins[ref.win]
			win.failed++
			if !ref.failed {
				ref.failed = true
				win.lat[ref.key]--
				win.lat[infKey]++
			}
		}
	}
}

// windows merges the workers' windows; the last one lasts from its start
// until the phase ended, since operations running at the deadline finish.
func (ph *phase) windows() ([]window, []float64) {
	ws := make([]window, windowsPerRun)
	secs := make([]float64, windowsPerRun)
	for i := range ws {
		ws[i] = newWindow()
		secs[i] = (ph.dur / windowsPerRun).Seconds()
	}
	secs[windowsPerRun-1] = (ph.elapsed - ph.dur/windowsPerRun*(windowsPerRun-1)).Seconds()
	for _, w := range ph.workers {
		for i, win := range w.wins {
			ws[i].items += win.items
			ws[i].failed += win.failed
			ws[i].installs += win.installs
			ws[i].failedInstalls += win.failedInstalls
			ws[i].lat.add(win.lat)
			ws[i].deltaLat.add(win.deltaLat)
		}
	}
	return ws, secs
}

// totals counts a phase's items and installs and their failures.
func (ph *phase) totals() window {
	ws, _ := ph.windows()
	t := newWindow()
	for _, w := range ws {
		t.items += w.items
		t.failed += w.failed
		t.installs += w.installs
		t.failedInstalls += w.failedInstalls
	}
	return t
}

// collect gathers the answers and reported fingerprints of several
// phases, for one verification pass.
func collect(s *session, phases ...*phase) ([]record, map[uint64]string) {
	recs := append([]record(nil), s.warm...)
	fps := map[uint64]string{}
	for v, fp := range s.fps {
		fps[v] = fp
	}
	for _, ph := range phases {
		for _, w := range ph.workers {
			recs = append(recs, w.recs...)
			for v, fp := range w.fps {
				fps[v] = fp
			}
		}
	}
	return recs, fps
}
