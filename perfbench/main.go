// Command perfbench is the repository's end-to-end benchmark. It serves
// a server.Server, in a child process of its own, over loopback HTTP and
// wire listeners, and runs one workload in rounds: each round sets the
// server up afresh with a seeded population, then offers the workload's
// requests in open loops at fixed rates and a closed loop. It checks
// every reply against a ground-truth shadow model and prints one JSON
// result line. With -trace 1 it instead reports per-layer metrics
// from a traced replay. See README.md for the workloads and metrics.
//
//	go run . -workload churn-http -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/hashfam"
	"repro/internal/setdb"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for WAL data and span files")
	serveMode := fs.Bool("serve", false, "internal: run the server process (see serve)")
	walDir := fs.String("wal-dir", "", "internal: the server process's WAL directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serveMode {
		return serve(*walDir)
	}
	// The load process's collector runs less often, so it rarely
	// delays a due request; its heap stays a few hundred MB at most.
	debug.SetGCPercent(400)
	sp, ok := specByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", *name, workloadNames())
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*out, sp.name+"-")
	if err != nil {
		return err
	}
	defer removeAll(dir)

	b, err := newBench(sp, *seed, *seconds, dir)
	if err != nil {
		return err
	}
	defer b.close()
	var res result
	if *trace == 1 {
		res, err = b.traced(filepath.Join(*out, "spans-"+sp.name+".jsonl"))
	} else {
		res, err = b.measured()
	}
	if err != nil {
		return err
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value (%v)", k, m.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

// bench is one run's state: the generated inputs and the served server.
type bench struct {
	sp     spec
	seed   int64
	dir    string
	pop    *population
	run    *runner
	srv    *served
	opts   setdb.Options
	fam    hashfam.Family
	setups int
	heapMB []float64
	rounds [][]segment
}

// Shares of a round: the main open loop, the side open loops (split
// evenly; main takes this share too when there are none) and the
// closed loop.
const (
	mainShare   = 0.5
	sideShare   = 0.25
	closedShare = 0.25
)

// A run is rounds rounds of --seconds/rounds each. Every round sends
// every request family, so each family is measured across the whole
// run: the hypervisor of a shared machine steals CPU time in bursts of
// several seconds, and a family measured only inside one burst read up
// to twice as slow. Every round starts from a freshly set-up server, so
// the rounds are alike: writes grow the sets and the tree as a round
// goes on (on churn-http a reconstruction cost twice as much in the
// eighth round as in the first), and a later round would otherwise
// measure a different state. Timings come from the rounds with the
// least stolen time (see timedRounds). Bursts lasted up to about 20 s,
// so while fewer than rounds/2 rounds had under quietSteal stolen, up to
// extraRounds more follow; they are planned with the others, so the
// schedule still follows from the seed alone.
const (
	rounds      = 8
	extraRounds = 4
	quietSteal  = 2.0 // % of CPU time
)

// newBench generates the inputs and prints the stamp.
func newBench(sp spec, seed int64, seconds int, dir string) (*bench, error) {
	b := &bench{sp: sp, seed: seed, dir: dir}
	var err error
	if b.opts, err = dbOptions(); err != nil {
		return nil, err
	}
	if b.fam, err = hashfam.New(hashfam.DefaultKind, b.opts.Bits, b.opts.K, b.opts.Seed); err != nil {
		return nil, err
	}
	if b.pop, err = generate(sp, seed); err != nil {
		return nil, err
	}
	b.run = newRunner(sp, newGenerator(sp, b.pop, seed), runtime.NumCPU())
	b.rounds = b.run.plan(rounds+extraRounds, float64(seconds)/rounds)
	planned := b.run.ops[:len(b.run.ops):len(b.run.ops)]
	rates := []string{fmt.Sprintf("%g/s", sp.main.rate)}
	for _, p := range sp.side {
		rates = append(rates, fmt.Sprintf("%g/s", p.rate))
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d nproc=%d gomaxprocs=%d go=%s commit=%s offered_rate=%s fsync=%s datafs=%s\n",
		sp.name, seed, seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(),
		strings.Join(rates, ","), fsyncLabel(sp), fsType(dir))
	fmt.Printf("digest of population and request schedule (%d requests): %s\n", len(planned), digest(b.pop, planned))
	return b, nil
}

// setup replaces the server with a fresh one holding the population,
// returns the set-up time and records the heap in use after a forced GC.
func (b *bench) setup() (time.Duration, error) {
	if b.srv != nil {
		err := b.srv.close()
		b.srv = nil
		if err != nil {
			return 0, err
		}
	}
	wdir := filepath.Join(b.dir, fmt.Sprintf("wal-%d", b.setups))
	b.setups++
	t0 := time.Now()
	srv, err := startServer(b.sp, wdir)
	if err != nil {
		return 0, err
	}
	if err := ingest(srv, b.pop); err != nil {
		srv.close()
		return 0, err
	}
	d := time.Since(t0)
	b.srv = srv
	m, err := srv.mem(true)
	if err != nil {
		return 0, err
	}
	b.heapMB = append(b.heapMB, float64(m.heapInuse)/(1<<20))
	b.run.newRound(srv)
	return d, nil
}

func (b *bench) close() {
	if b.run != nil {
		b.run.close()
	}
	if b.srv != nil {
		if err := b.srv.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
		}
	}
}

// roundResult is the set-up time of one round, what it sent and how
// long its closed loop took, the share of CPU time the hypervisor stole
// meanwhile, in %, and the round's server's shed count and allocation
// counters.
type roundResult struct {
	setup        time.Duration
	open, closed []record
	skipped      int
	closedTime   time.Duration
	steal        float64
	serverShed   uint64
	mem          memStats // deltas over the round
}

// runRounds runs rounds [from, to), each on a server set up afresh.
// before, when set, runs after the set-up.
func (b *bench) runRounds(from, to int, before func(round int) error) ([]roundResult, error) {
	var out []roundResult
	for i := from; i < to; i++ {
		var rr roundResult
		var err error
		if rr.setup, err = b.setup(); err != nil {
			return nil, err
		}
		if before != nil {
			if err := before(i); err != nil {
				return nil, err
			}
		}
		m0, err := b.srv.mem(false)
		if err != nil {
			return nil, err
		}
		st0 := cpuSteal()
		for _, sg := range b.rounds[i] {
			recs, elapsed := b.run.runSegment(sg)
			for _, rec := range recs {
				switch {
				case rec.skipped:
					rr.skipped++
				case sg.rate > 0:
					rr.open = append(rr.open, rec)
				default:
					rr.closed = append(rr.closed, rec)
				}
			}
			rr.closedTime += elapsed
		}
		rr.steal = cpuSteal().since(st0)
		m1, err := b.srv.mem(false)
		if err != nil {
			return nil, err
		}
		rr.mem = memStats{totalAlloc: m1.totalAlloc - m0.totalAlloc, numGC: m1.numGC - m0.numGC}
		if rr.serverShed, err = b.srv.shed(); err != nil {
			return nil, err
		}
		out = append(out, rr)
	}
	return out, nil
}

// records returns the open-loop and closed-loop records of rs and the
// closed loops' elapsed time.
func records(rs []roundResult) (open, closed []record, closedTime time.Duration) {
	for _, r := range rs {
		open = append(open, r.open...)
		closed = append(closed, r.closed...)
		closedTime += r.closedTime
	}
	return open, closed, closedTime
}

// quietest returns the n rounds of rs during which the hypervisor stole
// the least CPU time. Steal slows every request it meets (a round with
// 4% stolen read 15–20% slower than its neighbours), while a change to
// the program slows every round alike.
func quietest(rs []roundResult, n int) []roundResult {
	q := append([]roundResult(nil), rs...)
	sort.SliceStable(q, func(i, j int) bool { return q[i].steal < q[j].steal })
	return q[:n]
}

// timedRounds returns the rounds timings are read from: every round
// with under quietSteal stolen, or the rounds/2 quietest when fewer were
// that quiet. Rounds vary without steal too (churn-http's closed loop
// ran from 2,400 to 5,400 requests per second in rounds with under 1%
// stolen), so when the machine is quiet every round counts.
func timedRounds(rs []roundResult) []roundResult {
	var quiet []roundResult
	for _, r := range rs {
		if r.steal < quietSteal {
			quiet = append(quiet, r)
		}
	}
	if len(quiet) < rounds/2 {
		return quietest(rs, rounds/2)
	}
	return quiet
}

// twin builds an in-process database holding the population, with the
// same profile and therefore the same tree as a freshly set-up server.
func (b *bench) twin() (*setdb.DB, error) {
	db, err := setdb.Open(b.opts)
	if err != nil {
		return nil, err
	}
	var writes []setdb.Write
	for i, k := range b.pop.plainKeys {
		writes = append(writes, setdb.Write{Key: k, IDs: b.pop.plain[i].ids})
	}
	for i, k := range b.pop.dynKeys {
		writes = append(writes, setdb.Write{Key: k, IDs: b.pop.dyn[i].ids, Dynamic: true})
	}
	for len(writes) > 0 {
		n := min(64, len(writes))
		if err := db.ApplyBatch(writes[:n]); err != nil {
			return nil, err
		}
		writes = writes[n:]
	}
	return db, nil
}

// measured runs every round and reports the end-to-end metrics.
func (b *bench) measured() (result, error) {
	rs, err := b.runRounds(0, rounds, nil)
	if err != nil {
		return result{}, err
	}
	for len(rs) < len(b.rounds) && quietest(rs, rounds/2)[rounds/2-1].steal >= quietSteal {
		more, err := b.runRounds(len(rs), len(rs)+1, nil)
		if err != nil {
			return result{}, err
		}
		rs = append(rs, more...)
	}
	v, err := b.verify(rs)
	if err != nil {
		return result{}, err
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	quiet := timedRounds(rs)
	// A set-up shares its round's stolen time, so it is read from the
	// same rounds.
	var setups []float64
	for _, r := range quiet {
		setups = append(setups, r.setup.Seconds())
	}
	put("setup_s", "s", median(setups))
	qOpen, qClosed, qClosedTime := records(quiet)
	var counts, tails []string
	family := func(prefix, unit string, scale float64, sel func(opKind) bool) {
		var xs []float64
		for i := range qOpen {
			if sel(qOpen[i].o.kind) {
				xs = append(xs, float64(qOpen[i].latency())/scale)
			}
		}
		put(prefix+"_p50_"+unit, unit, quantile(xs, 0.5))
		counts = append(counts, fmt.Sprintf("%s=%d", prefix, len(xs)))
		tails = append(tails, fmt.Sprintf("%s_p99_%s=%.1f", prefix, unit, quantile(xs, 0.99)))
	}
	family("sample", "us", 1e3, opKind.isSample)
	family("reconstruct", "ms", 1e6, opKind.isReconstruct)
	family("write", "us", 1e3, opKind.isWrite)
	q := v.chk.q
	put("sample_precision", "ratio", ratio(q.sampleMembers, q.sampleReturned))
	put("sample_yield", "ratio", ratio(q.sampleReturned, q.sampleRequested))
	put("reconstruct_recall", "ratio", ratio(q.reconMembers, q.reconTruth))
	put("reconstruct_precision", "ratio", ratio(q.reconMembers, q.reconReturned))
	put("ops_per_s", "1/s", float64(len(qClosed))/qClosedTime.Seconds())
	// (failed + ½)/(attempted + 1) over the base rounds, whose request
	// count is fixed: never 0, so a regression from zero failures is
	// still a finite ratio, and not moved by how many extra rounds ran.
	// failed and attempted in the result line count every round.
	baseOpen, baseClosed, _ := records(rs[:rounds])
	baseFailed := 0
	for _, recs := range [][]record{baseOpen, baseClosed} {
		for i := range recs {
			if recs[i].err != nil {
				baseFailed++
			}
		}
	}
	put("error_rate", "ratio", (float64(baseFailed)+0.5)/float64(len(baseOpen)+len(baseClosed)+1))
	put("heap_mb", "MB", median(b.heapMB))

	var late []float64
	var svc [numOps][]float64
	for i := range qOpen {
		late = append(late, float64(qOpen[i].sent-qOpen[i].due)/1e3)
		k := qOpen[i].o.kind
		svc[k] = append(svc[k], float64(qOpen[i].done-qOpen[i].sent)/1e3)
	}
	for k, xs := range svc {
		if len(xs) > 0 {
			fmt.Printf("  %-16s n=%6d service p50=%10.1fus p99=%10.1fus\n", opNames[k], len(xs), quantile(xs, 0.5), quantile(xs, 0.99))
		}
	}
	var steals, rates, setupS []string
	for _, r := range rs {
		steals = append(steals, fmt.Sprintf("%.1f", r.steal))
		rates = append(rates, fmt.Sprintf("%.0f", float64(len(r.closed))/r.closedTime.Seconds()))
		setupS = append(setupS, fmt.Sprintf("%.3f", r.setup.Seconds()))
	}
	fmt.Printf("cpu time stolen by the hypervisor, %% per round: %s; timings read from %d rounds\n",
		strings.Join(steals, " "), len(quiet))
	fmt.Printf("set-up seconds per round: %s\n", strings.Join(setupS, " "))
	fmt.Printf("closed-loop rate per round: %s\n", strings.Join(rates, " "))
	fmt.Printf("open loops, timed rounds: %d requests (%s); gen.late_p50_us=%.1f gen.late_p99_us=%.1f\n",
		len(qOpen), strings.Join(counts, " "), quantile(late, 0.5), quantile(late, 0.99))
	// The p99s follow the hypervisor's steal more than the program (see
	// README.md), so they are printed here and kept out of the result.
	fmt.Printf("open-loop tails: %s\n", strings.Join(tails, " "))
	fmt.Printf("closed loops, timed rounds: %d requests in %.2fs over %d connections\n", len(qClosed), qClosedTime.Seconds(), b.run.conns)
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-22s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return v.result(m), nil
}

// verdict is the checker's reading of a run.
type verdict struct {
	chk               *checker
	attempted, failed int
}

// result is the run's result line: it is correct only when no reply
// broke the shadow model and the shed counts agreed.
func (v verdict) result(m map[string]metric) result {
	return result{Correct: v.chk.violations == 0, Attempted: v.attempted, Failed: v.failed, Metrics: m}
}

// verify checks every reply of rs and cross-checks the shed count
// against the /v1/stats counters of the rounds' servers.
func (b *bench) verify(rs []roundResult) (verdict, error) {
	open, closed, _ := records(rs)
	recs := append(open, closed...)
	skipped := 0
	var serverShed uint64
	for _, r := range rs {
		skipped += r.skipped
		serverShed += r.serverShed
	}
	var ref *setdb.DB
	if !b.sp.sparse {
		// Writes reuse population ids, so the served tree is static and a
		// twin's tree is an exact reference for reconstructions.
		var err error
		if ref, err = b.twin(); err != nil {
			return verdict{}, err
		}
	}
	chk := newChecker(b.fam, nil)
	if ref != nil {
		chk.ref = ref.Tree()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].o.idx < recs[j].o.idx })
	failed, shed := 0, 0
	var firstErr error
	for i := range recs {
		switch {
		case recs[i].err == errShed:
			shed++
			failed++
		case recs[i].err != nil:
			failed++
			if firstErr == nil {
				firstErr = recs[i].err
			}
		default:
			chk.check(recs[i].o, recs[i].r)
		}
	}
	if serverShed != uint64(shed) {
		chk.violations++
		chk.examples = append(chk.examples, fmt.Sprintf("client saw %d sheds, /v1/stats counts %d", shed, serverShed))
	}
	state := "ok"
	if chk.violations > 0 {
		state = fmt.Sprintf("FAILED (%d violations)", chk.violations)
	}
	fmt.Printf("checker: %s; %d replies checked, %d failed requests (%d shed; /v1/stats counts %d), %d exact reconstruction references\n",
		state, len(recs)-failed, failed, shed, serverShed, len(chk.refs))
	if skipped > 0 {
		fmt.Printf("  %d requests not sent: an earlier write to their key failed in the same round\n", skipped)
	}
	for _, e := range chk.examples {
		fmt.Println("  violation:", e)
	}
	if firstErr != nil {
		fmt.Println("  first failure:", firstErr)
	}
	return verdict{chk: chk, attempted: len(recs), failed: failed}, nil
}

func fsyncLabel(sp spec) string {
	if !sp.wal {
		return "none(no-wal)"
	}
	return string(fsyncPolicy)
}

// commit is the source revision, passed in by run.sh.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuTimes is the steal and total time of /proc/stat's cpu line.
type cpuTimes struct{ steal, total uint64 }

func cpuSteal() cpuTimes {
	var t cpuTimes
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	fields := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user … steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since returns the share of the time since t0 that was stolen, in %.
func (t cpuTimes) since(t0 cpuTimes) float64 {
	if t.total <= t0.total {
		return 0
	}
	return 100 * float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sortedKeys(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
