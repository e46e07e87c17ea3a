package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sleep blocks the calling thread for d. The runtime's timers wake
// through the network poller at millisecond granularity (a 1.7 ms
// schedule ran ~0.6 ms late at the median); nanosleep keeps the
// open-loop generator within ~0.1 ms of its schedule.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// record is the outcome of one request. Times are offsets from the
// phase start; due is when an open-loop request was scheduled.
type record struct {
	o               *op
	due, sent, done time.Duration
	err             error
	r               reply
	// skipped marks a request that was not sent: an earlier write to its
	// dynamic key failed in this round, so the server's version of the
	// set is unknown and the shadow can no longer check it.
	skipped bool
}

func (r *record) latency() time.Duration {
	if r.err != nil {
		// A failed request counts as missing any latency limit.
		return requestTimeout
	}
	return r.done - r.due
}

// keyGate serves the requests to one dynamic key in generation order,
// so the shadow state each read carries is exactly what the server
// holds when it serves the read.
type keyGate struct {
	mu   sync.Mutex
	cond sync.Cond
	done uint64
}

func (g *keyGate) wait(seq uint64) {
	g.mu.Lock()
	for g.done != seq {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *keyGate) release() {
	g.mu.Lock()
	g.done++
	g.mu.Unlock()
	g.cond.Broadcast()
}

// runner drives the load of one run: a shared request sequence, one
// client per connection, per-key ordering for dynamic sets.
type runner struct {
	sp      spec
	srv     *served
	conns   int
	httpTr  *http.Transport
	gates   []keyGate
	onReply func(w int, rec *record, start time.Time) // trace hook, run before the key gate opens
	// diverged marks the dynamic keys with a failed write in the current
	// round; it is read and written under the key's gate.
	diverged []bool

	mu  sync.Mutex
	gen *generator
	ops []*op
}

func newRunner(sp spec, gen *generator, conns int) *runner {
	r := &runner{sp: sp, conns: conns, gen: gen, httpTr: newHTTPTransport(conns),
		gates: make([]keyGate, len(gen.pop.dyn)), diverged: make([]bool, len(gen.pop.dyn))}
	for i := range r.gates {
		r.gates[i].cond.L = &r.gates[i].mu
	}
	return r
}

// newRound points the runner at a freshly set-up server.
func (r *runner) newRound(srv *served) {
	r.srv = srv
	clear(r.diverged)
	r.httpTr.CloseIdleConnections()
}

// segment is a run of consecutive requests: an open loop at rate, or
// with rate 0 a closed loop.
type segment struct {
	from, n int
	rate    float64
}

// plan generates the schedule of a run: rounds rounds of roundSec
// seconds, each the main open loop, then each side open loop, then a
// closed loop of the main mix. The closed loop sends a fixed number of
// requests, enough for its share of a round at the capacity the
// workload had when the benchmark was defined, so the whole schedule
// follows from the seed. Every round starts from the population.
func (r *runner) plan(rounds int, roundSec float64) [][]segment {
	mainSec, sideSec := mainShare*roundSec, 0.0
	if len(r.sp.side) > 0 {
		sideSec = sideShare * roundSec / float64(len(r.sp.side))
	} else {
		mainSec += sideShare * roundSec
	}
	var out [][]segment
	add := func(p phase, n int, rate float64) segment {
		sg := segment{from: len(r.ops), n: max(n, 1), rate: rate}
		r.gen.setMix(p.mix, sg.n)
		r.opAt(sg.from + sg.n - 1)
		return sg
	}
	for i := 0; i < rounds; i++ {
		r.gen.reset()
		round := []segment{add(r.sp.main, int(r.sp.main.rate*mainSec), r.sp.main.rate)}
		for _, p := range r.sp.side {
			round = append(round, add(p, int(p.rate*sideSec), p.rate))
		}
		round = append(round, add(r.sp.main, int(r.sp.capacity*closedShare*roundSec), 0))
		out = append(out, round)
	}
	return out
}

// runSegment runs one segment and returns its records and, for a
// closed loop, its elapsed time.
func (r *runner) runSegment(sg segment) ([]record, time.Duration) {
	if sg.rate > 0 {
		return r.openLoop(sg), 0
	}
	return r.closedLoop(sg)
}

// opAt returns request i, generating the sequence up to it.
func (r *runner) opAt(i int) *op {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.ops) <= i {
		r.ops = append(r.ops, r.gen.gen())
	}
	return r.ops[i]
}

func (r *runner) close() { r.httpTr.CloseIdleConnections() }

// serve sends one request in order with the other requests to its key.
// A write that fails marks its key diverged, and the key's later
// requests in the round are skipped.
func (r *runner) serve(w int, c *httpClient, rec *record, start time.Time) {
	o := rec.o
	if o.dyn >= 0 {
		r.gates[o.dyn].wait(o.seq)
		defer r.gates[o.dyn].release()
		if r.diverged[o.dyn] {
			rec.skipped = true
			return
		}
	}
	rec.sent = time.Since(start)
	rec.r, rec.err = c.do(o)
	rec.done = time.Since(start)
	if o.dyn >= 0 && rec.err != nil && o.kind.isWrite() {
		r.diverged[o.dyn] = true
	}
	if r.onReply != nil {
		r.onReply(w, rec, start)
	}
}

// openLoop offers the requests of sp, each due at a fixed interval,
// over r.conns connections. A request is timed from its due time.
// HTTP/1.1 cannot pipeline, so each connection sends its next request
// when the last one is answered, and a slow request delays those
// queued behind it.
func (r *runner) openLoop(sp segment) []record {
	n := sp.n
	recs := make([]record, n)
	for i := range recs {
		recs[i].o = r.opAt(sp.from + i)
		recs[i].due = time.Duration(float64(i) / sp.rate * float64(time.Second))
	}
	due := func(rec *record, start time.Time) {
		if d := rec.due - time.Since(start); d > 0 {
			sleep(d)
		}
	}
	var next atomic.Int64
	r.workers(func(w int, c *httpClient, start time.Time) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			due(&recs[i], start)
			r.serve(w, c, &recs[i], start)
		}
	})
	return recs
}

// closedLoop sends the requests of sg back to back over r.conns
// connections, and returns the records and the elapsed time until the
// last reply.
func (r *runner) closedLoop(sg segment) ([]record, time.Duration) {
	recs := make([]record, sg.n)
	for i := range recs {
		recs[i].o = r.opAt(sg.from + i)
	}
	var next atomic.Int64
	start := r.workers(func(w int, c *httpClient, s time.Time) {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(recs) {
				return
			}
			recs[i].due = time.Since(s)
			r.serve(w, c, &recs[i], s)
		}
	})
	return recs, time.Since(start)
}

// workers runs body on r.conns goroutines, each with its own client,
// and returns the common start time once all have finished.
func (r *runner) workers(body func(w int, c *httpClient, start time.Time)) time.Time {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < r.conns; i++ {
		c := &httpClient{c: &http.Client{Transport: r.httpTr, Timeout: requestTimeout}, base: "http://" + r.srv.httpAddr}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, c, start)
		}(i)
	}
	wg.Wait()
	return start
}
