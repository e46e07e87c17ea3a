package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/server"
	"repro/internal/setdb"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Per-request replay caps of the in-process layer replay, per family:
// enough requests for stable medians, few enough that a traced run
// stays within its time budget.
const (
	replaySamples      = 400
	replayReconstructs = 120
	replayWrites       = 400
)

// span is one timed call. Spans of one request share its index; a
// replay span's parent is the request's root span.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer holds the traced run's spans and its replay targets: a twin
// server in this process that holds what a freshly set-up server holds
// and replays every traced request, writes included. Its ServeHTTP is
// called on an in-memory recorder, and its wire listener serves the
// wire.Client.Sample replays, one client per worker. The served
// server's counters, sheds included, see none of the replays.
type tracer struct {
	b        *bench
	epoch    time.Time
	twin     *server.Server
	serving  chan error
	wire     []*wire.Client
	wireMu   []sync.Mutex // a wire.Client serves one request at a time
	mu       sync.Mutex
	spans    []span
	twinErrs int
}

func newTracer(b *bench) *tracer {
	return &tracer{b: b, epoch: time.Now(), wireMu: make([]sync.Mutex, b.run.conns)}
}

// reset replaces the twin with a fresh one holding the population, as
// each round's served server does.
func (t *tracer) reset(int) error {
	if err := t.close(); err != nil {
		return err
	}
	db, err := t.b.twin()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	t.twin = server.New(db, server.Config{SlowRequest: time.Second})
	t.serving = make(chan error, 1)
	go func(srv *server.Server, done chan<- error) { done <- srv.ServeBinary(ln) }(t.twin, t.serving)
	for i := 0; i < t.b.run.conns; i++ {
		c, err := dialWire(ln.Addr().String())
		if err != nil {
			return err
		}
		t.wire = append(t.wire, c)
	}
	return nil
}

// close stops the twin's wire listener and waits for it.
func (t *tracer) close() error {
	for _, c := range t.wire {
		c.Close()
	}
	t.wire = nil
	if t.twin == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := t.twin.ShutdownBinary(ctx)
	if e := <-t.serving; err == nil && !errors.Is(e, server.ErrBinaryClosed) {
		err = e
	}
	t.twin = nil
	return err
}

// timed runs fn and returns its span.
func (t *tracer) timed(req int, name, parent string, fn func()) span {
	s := span{Req: req, Name: name, Parent: parent, Start: time.Since(t.epoch).Nanoseconds()}
	fn()
	s.End = time.Since(t.epoch).Nanoseconds()
	return s
}

// live is the runner's reply hook in the traced half: it records the
// root span and replays the request through the transport layers.
func (t *tracer) live(w int, rec *record, phaseStart time.Time) {
	if rec.err != nil {
		return
	}
	o := rec.o
	root := "request." + opNames[o.kind]
	off := phaseStart.Sub(t.epoch)
	spans := []span{{Req: o.idx, Name: root, Start: (off + rec.sent).Nanoseconds(), End: (off + rec.done).Nanoseconds()}}
	var werr error
	if o.kind.isSample() {
		t.wireMu[w].Lock()
		spans = append(spans, t.timed(o.idx, "wire.sample_rtt", root, func() {
			_, werr = t.wire[w].Sample(o.key, 1, wire.SampleOpts{Dynamic: o.dyn >= 0})
		}))
		t.wireMu[w].Unlock()
	}
	path, body := httpRequest(o)
	js, _ := json.Marshal(body)
	rr := httptest.NewRecorder()
	spans = append(spans, t.timed(o.idx, "server.http_handler", root, func() {
		t.twin.ServeHTTP(rr, httptest.NewRequest("POST", path, bytes.NewReader(js)))
	}))
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	if rr.Code != 200 || werr != nil {
		t.twinErrs++
	}
	t.mu.Unlock()
}

// layerStats accumulates the in-process replay.
type layerStats struct {
	draws, noSample, drawMembers, drawReturned int
	drawOps                                    core.Ops
	uniformAttempts, uniformAccepted           uint64
	recons                                     int
	reconOps                                   core.Ops
	// quality by shape and size class: [uniform, clustered], [small, large]
	shapeTruth, shapeMembers, shapeDrawRet, shapeDrawMem [2]int
	sizeTruth, sizeMembers, sizeDrawRet, sizeDrawMem     [2]int
	writes                                               int
	bytesCopied, walBytes, fsyncs                        uint64
	walSeconds                                           float64
}

// traced runs the first half of the rounds untraced and the second
// half traced, with no extra rounds; it replays the traced rounds in
// process through each layer's public functions and reports per-layer
// metrics. Its verdict is the checker's, as in an untraced run.
func (b *bench) traced(spanFile string) (result, error) {
	half := rounds / 2
	untraced, err := b.runRounds(0, half, nil)
	if err != nil {
		return result{}, err
	}
	t := newTracer(b)
	defer t.close()
	b.run.onReply = t.live
	tracedRounds, err := b.runRounds(half, rounds, t.reset)
	b.run.onReply = nil
	if err != nil {
		return result{}, err
	}
	if err := t.close(); err != nil {
		return result{}, err
	}
	openU, closedU, _ := records(untraced)
	openT, _, _ := records(tracedRounds)
	all := append(untraced[:len(untraced):len(untraced)], tracedRounds...)
	v, err := b.verify(all)
	if err != nil {
		return result{}, err
	}
	var shed uint64
	var mem memStats
	for _, r := range all {
		shed += r.serverShed
	}
	for _, r := range untraced {
		mem.totalAlloc += r.mem.totalAlloc
		mem.numGC += r.mem.numGC
	}
	plainOps := len(openU) + len(closedU)

	if t.twinErrs > 0 {
		return result{}, fmt.Errorf("%d replays failed on the twin server", t.twinErrs)
	}
	ls, err := t.replay(half, rounds)
	if err != nil {
		return result{}, err
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	byName := map[string][]float64{}
	byReq := map[string]map[int]float64{}
	for _, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], s.us())
		if byReq[s.Name] == nil {
			byReq[s.Name] = map[int]float64{}
		}
		byReq[s.Name][s.Req] = s.us()
	}
	med := func(name string) float64 { return median(byName[name]) }

	put("wire.sample_rtt_us", "us", med("wire.sample_rtt"))
	put("wire.transport_us", "us", med("wire.sample_rtt")-med("setdb.sample_many.n1"))
	put("server.http_handler_us", "us", med("server.http_handler"))
	var self []float64
	for req, h := range byReq["server.http_handler"] {
		for _, inner := range []string{"setdb.sample_many.n1", "setdb.sample_many.n64", "core.reconstruct", "setdb.apply_batch"} {
			if d, ok := byReq[inner][req]; ok {
				self = append(self, h-d)
				break
			}
		}
	}
	put("server.http_self_us", "us", median(self))
	put("server.shed_ratio", "ratio", ratio(int(shed), v.attempted))
	put("setdb.sample_many_us.n1", "us", med("setdb.sample_many.n1"))
	put("setdb.sample_many_us.n64", "us", med("setdb.sample_many.n64"))
	put("setdb.apply_batch_us", "us", med("setdb.apply_batch"))
	put("setdb.bytes_copied_per_write", "B", float64(ls.bytesCopied)/float64(ls.writes))
	put("setdb.snapshot_dynamic_us", "us", med("setdb.snapshot_dynamic/64")/64)
	draws := float64(ls.draws)
	put("core.draw_us", "us", med("core.draw"))
	put("core.intersections_per_draw", "count", float64(ls.drawOps.Intersections)/draws)
	put("core.memberships_per_draw", "count", float64(ls.drawOps.Memberships)/draws)
	put("core.leaves_per_draw", "count", float64(ls.drawOps.LeavesScanned)/draws)
	put("core.backtracks_per_draw", "count", float64(ls.drawOps.Backtracks)/draws)
	put("core.no_sample_ratio", "ratio", float64(ls.noSample)/draws)
	put("core.uniform_accept_ratio", "ratio", float64(ls.uniformAccepted)/float64(ls.uniformAttempts))
	recons := float64(ls.recons)
	put("core.reconstruct_ms", "ms", med("core.reconstruct")/1e3)
	put("core.memberships_per_reconstruct", "count", float64(ls.reconOps.Memberships)/recons)
	put("core.leaves_per_reconstruct", "count", float64(ls.reconOps.LeavesScanned)/recons)
	estNS := med("bloom.estimate/16") * 1e3 / 16
	put("bloom.estimate_ns", "ns", estNS)
	put("core.descent_share", "ratio", float64(ls.drawOps.Intersections)/draws*estNS/(med("core.draw")*1e3))
	put("bitset.popcount_pass_ns", "ns", med("bitset.and_count/16")*1e3/16)
	put("bloom.probe_ns_per_key", "ns", med("bloom.contains_batch.1024keys")*1e3/1024)
	put("hashfam.positions_ns_per_key", "ns", med("hashfam.positions_many.1024keys")*1e3/1024)
	put("membership.clone_add_us", "us", med("membership.clone_add"))
	put("membership.clone_remove_us", "us", med("membership.clone_remove"))
	put("wal.apply_us", "us", med("wal.apply"))
	put("wal.bytes_per_write", "B", float64(ls.walBytes)/float64(ls.writes))
	put("wal.fsyncs_per_s", "1/s", float64(ls.fsyncs)/ls.walSeconds)
	for i, shape := range []string{"uniform", "clustered"} {
		put("core.precision."+shape, "ratio", ratio(ls.shapeDrawMem[i], ls.shapeDrawRet[i]))
		put("core.recall."+shape, "ratio", ratio(ls.shapeMembers[i], ls.shapeTruth[i]))
	}
	for i, size := range []string{"small", "large"} {
		put("core.precision."+size, "ratio", ratio(ls.sizeDrawMem[i], ls.sizeDrawRet[i]))
		put("core.recall."+size, "ratio", ratio(ls.sizeMembers[i], ls.sizeTruth[i]))
	}
	var late, latU, latT []float64
	for i := range openU {
		late = append(late, float64(openU[i].sent-openU[i].due)/1e3)
		latU = append(latU, float64(openU[i].latency())/1e3)
	}
	for i := range openT {
		latT = append(latT, float64(openT[i].latency())/1e3)
	}
	put("gen.late_p99_us", "us", quantile(late, 0.99))
	put("go.alloc_bytes_per_op", "B", float64(mem.totalAlloc)/float64(plainOps))
	put("go.gc_cycles_per_kop", "count", float64(mem.numGC)*1000/float64(plainOps))
	put("trace.overhead_us", "us", median(latT)-median(latU))

	if err := writeSpans(spanFile, t.spans); err != nil {
		return result{}, err
	}
	m3 := float64(b.opts.Bits+63) / 64 * 8
	fmt.Printf("traced run: %d untraced + %d traced requests; %d spans written to %s\n", plainOps, v.attempted-plainOps, len(t.spans), spanFile)
	fmt.Printf("computed, not measured: %.0f bytes of filter words read per draw by the descent's estimates (3 passes over two %.0f-byte filters each)\n",
		float64(ls.drawOps.Intersections)/draws*3*2*m3, m3)
	fmt.Printf("tracing overhead: median latency %.1f us traced vs %.1f us untraced\n", median(latT), median(latU))
	// Replay spans run after their request's reply, so no span's interval
	// covers another's, and a span's self time is its duration.
	fmt.Println("self time by span (median us):")
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s n=%5d %12.3f\n", n, len(byName[n]), median(byName[n]))
	}
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return v.result(m), nil
}

// replay runs the requests of rounds [from, to) in schedule order, up
// to the replay caps, through each layer's public functions on a
// reference twin. Like the served server, the twin starts each round
// from the population; it applies every write of the schedule, so its
// state, and with it every operation count, depends on the seed alone.
func (t *tracer) replay(from, to int) (*layerStats, error) {
	rp := &replayer{t: t, b: t.b, ls: &layerStats{}, uniform: map[string]*core.UniformSampler{},
		dense: bloom.NewFromElements(t.b.fam, t.b.pop.pool)}
	for round := from; round < to; round++ {
		if err := rp.round(round); err != nil {
			return nil, err
		}
	}
	for _, u := range rp.samplers {
		st := u.Stats()
		rp.ls.uniformAttempts += st.Attempts
		rp.ls.uniformAccepted += st.Accepted
	}
	t.spans = append(t.spans, rp.spans...)
	fmt.Printf("replayed in process: %d draws, %d reconstructions, %d writes\n", rp.ls.draws, rp.ls.recons, rp.ls.writes)
	return rp.ls, nil
}

// replayer is the state of one in-process replay.
type replayer struct {
	t                       *tracer
	b                       *bench
	ls                      *layerStats
	dense                   *bloom.Filter // every pool id, for the estimate and popcount timings
	uniform                 map[string]*core.UniformSampler
	samplers                []*core.UniformSampler
	scratch                 []uint64
	spans                   []span
	nSample, nRecon, nWrite int
}

// round replays one round on a fresh twin and a fresh scratch WAL.
func (rp *replayer) round(round int) error {
	b, ls := rp.b, rp.ls
	ref, err := b.twin()
	if err != nil {
		return err
	}
	tree := ref.Tree()
	store, err := wal.Open(filepath.Join(b.dir, fmt.Sprintf("replay-wal-%d", round)),
		func() (*setdb.DB, error) { return setdb.Open(b.opts) }, wal.Options{Fsync: fsyncPolicy})
	if err != nil {
		return err
	}
	defer store.Close()
	var seed []setdb.Write
	for i, k := range b.pop.dynKeys {
		seed = append(seed, setdb.Write{Key: k, IDs: b.pop.dyn[i].ids, Dynamic: true})
	}
	if err := store.Apply(seed); err != nil {
		return err
	}
	ws0 := store.Stats()
	walStart := time.Now()
	segs := b.rounds[round]
	last := segs[len(segs)-1]
	for i := segs[0].from; i < last.from+last.n; i++ {
		o := b.run.opAt(i)
		root := "request." + opNames[o.kind]
		// timed records one span around reps calls of fn; metrics divide
		// by the count, which the span name carries after a slash.
		timed := func(name string, reps int, fn func()) {
			if reps > 1 {
				name = fmt.Sprintf("%s/%d", name, reps)
			}
			rp.spans = append(rp.spans, rp.t.timed(o.idx, name, root, func() {
				for r := 0; r < reps; r++ {
					fn()
				}
			}))
		}
		switch {
		case o.kind.isWrite():
			w := toWrite(o)
			if rp.nWrite >= replayWrites {
				if err := ref.ApplyBatch([]setdb.Write{w}); err != nil {
					return err
				}
				if err := store.Apply([]setdb.Write{w}); err != nil {
					return err
				}
				continue
			}
			rp.nWrite++
			mem := ref.MembershipDynamic(o.key)
			var cerr error
			if o.kind == opAdd {
				timed("membership.clone_add", 1, func() { mem.CloneAddDynamic(o.ids...) })
			} else {
				timed("membership.clone_remove", 1, func() { _, cerr = mem.CloneRemove(o.ids...) })
			}
			before := ref.Stats().StateBytesCopied
			timed("setdb.apply_batch", 1, func() {
				if err := ref.ApplyBatch([]setdb.Write{w}); err != nil && cerr == nil {
					cerr = err
				}
			})
			ls.bytesCopied += ref.Stats().StateBytesCopied - before
			// The snapshot a dynamic reader loads next, on every workload.
			var serr error
			timed("setdb.snapshot_dynamic", 64, func() { _, serr = ref.SnapshotDynamic(o.key) })
			if cerr == nil {
				cerr = serr
			}
			timed("wal.apply", 1, func() {
				if err := store.Apply([]setdb.Write{w}); err != nil && cerr == nil {
					cerr = err
				}
			})
			if cerr != nil {
				return fmt.Errorf("replay of request %d: %w", o.idx, cerr)
			}
			ls.writes++
		case o.kind.isSample() && rp.nSample < replaySamples:
			rp.nSample++
			f, err := filterOf(ref, o, timed)
			if err != nil {
				return err
			}
			timed("setdb.sample_many.n1", 1, func() { _, err = ref.SampleManyFrom(f, 1, 0, nil) })
			// No request samples 64 ids or exactly uniformly; every eighth
			// draw times both on its request's filter, so the layers are
			// read on every workload.
			eighth := rp.nSample%8 == 0
			if err == nil && eighth {
				timed("setdb.sample_many.n64", 1, func() { _, err = ref.SampleManyFrom(f, 64, 0, nil) })
			}
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(b.seed*7919 + int64(o.idx)))
			if eighth {
				u := rp.uniform[o.key]
				if u == nil || u.Filter() != f {
					if u, err = tree.NewUniformSampler(f); err != nil {
						return err
					}
					rp.uniform[o.key] = u
					rp.samplers = append(rp.samplers, u)
				}
				if _, err := u.SampleN(4, rng, nil); err != nil && err != core.ErrNoSample {
					return err
				}
			}
			var ops core.Ops
			var x uint64
			var derr error
			timed("core.draw", 1, func() { x, rp.scratch, derr = tree.SampleScratch(f, rng, &ops, rp.scratch[:0]) })
			ls.draws++
			ls.drawOps.Add(ops)
			shape, size := b.pop.classes(o)
			switch {
			case derr == core.ErrNoSample:
				ls.noSample++
			case derr != nil:
				return derr
			default:
				ls.shapeDrawRet[shape]++
				ls.sizeDrawRet[size]++
				if o.truth.has(x) {
					ls.drawMembers++
					ls.shapeDrawMem[shape]++
					ls.sizeDrawMem[size]++
				}
			}
			words := f.Bits()
			timed("bloom.estimate", 16, func() { bloom.EstimateIntersectionOf(rp.dense, f) })
			timed("bitset.and_count", 16, func() { words.AndCount(rp.dense.Bits()) })
		case o.kind.isReconstruct() && rp.nRecon < replayReconstructs:
			rp.nRecon++
			f, err := filterOf(ref, o, timed)
			if err != nil {
				return err
			}
			var ops core.Ops
			var ids []uint64
			timed("core.reconstruct", 1, func() { ids, err = tree.Reconstruct(f, core.PruneByEstimate, &ops) })
			if err != nil {
				return err
			}
			ls.recons++
			ls.reconOps.Add(ops)
			members := 0
			for _, id := range ids {
				if o.truth.has(id) {
					members++
				}
			}
			shape, size := b.pop.classes(o)
			ls.shapeTruth[shape] += len(o.truth.ids)
			ls.shapeMembers[shape] += members
			ls.sizeTruth[size] += len(o.truth.ids)
			ls.sizeMembers[size] += members
			// One leaf's worth of keys around the set's first member.
			lo := o.truth.ids[0] &^ 1023
			keys := make([]uint64, 1024)
			for k := range keys {
				keys[k] = lo + uint64(k)
			}
			out := make([]bool, len(keys))
			timed("bloom.contains_batch.1024keys", 1, func() { rp.scratch = f.ContainsBatch(keys, out, rp.scratch[:0]) })
			var pos []uint64
			timed("hashfam.positions_many.1024keys", 1, func() {
				for k := 0; k < len(keys); k += 64 {
					pos = hashfam.PositionsMany(b.fam, keys[k:k+64], pos[:0])
				}
			})
		}
	}
	ws1 := store.Stats()
	ls.walSeconds += time.Since(walStart).Seconds()
	ls.walBytes += ws1.AppendedBytes - ws0.AppendedBytes
	ls.fsyncs += ws1.Fsyncs - ws0.Fsyncs
	return nil
}

// filterOf loads the published filter a read request queries.
func filterOf(ref *setdb.DB, o *op, timed func(string, int, func())) (*bloom.Filter, error) {
	if o.dyn < 0 {
		if f := ref.Filter(o.key); f != nil {
			return f, nil
		}
		return nil, fmt.Errorf("replay: no set %q", o.key)
	}
	var f *bloom.Filter
	var err error
	timed("setdb.snapshot_dynamic", 64, func() { f, err = ref.SnapshotDynamic(o.key) })
	return f, err
}

// classes returns the shape class (0 uniform, 1 clustered) and size
// class (0 small, 1 large: at least the median initial size of the
// request's group, plain or dynamic sets) of the set a request reads.
func (p *population) classes(o *op) (shape, size int) {
	if o.truth.clustered {
		shape = 1
	}
	group := p.plain
	if o.dyn >= 0 {
		group = p.dyn
	}
	sizes := make([]float64, len(group))
	for i, s := range group {
		sizes[i] = float64(len(s.ids))
	}
	if float64(len(o.truth.ids)) >= median(sizes) {
		size = 1
	}
	return shape, size
}

func toWrite(o *op) setdb.Write {
	return setdb.Write{Key: o.key, IDs: o.ids, Dynamic: true, Remove: o.kind == opRemove}
}

// writeSpans writes the spans as JSON lines, once, at the end of a run.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
