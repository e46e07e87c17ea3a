package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/workload"
)

// namespace is M for every workload: 2^20 ids, where the pruned tree
// has 1,024 leaves of 1,024 ids each at bstserved's default profile.
const namespace = 1 << 20

// opKind is one request class of the traffic mix.
type opKind uint8

const (
	opSample1        opKind = iota // plain set, near-uniform BSTSample, n=1
	opReconstruct                  // plain set reconstruction
	opIntersection                 // |A ∩ B| estimate of two plain sets
	opAdd                          // add 1–16 ids to a dynamic set
	opRemove                       // remove 1–16 live ids from a dynamic set
	opDynSample                    // dynamic set sample, n=1
	opDynReconstruct               // dynamic set reconstruction
	numOps
)

var opNames = [numOps]string{
	"sample1", "reconstruct", "intersection", "add", "remove", "dyn_sample", "dyn_reconstruct",
}

func (k opKind) isSample() bool      { return k == opSample1 || k == opDynSample }
func (k opKind) isReconstruct() bool { return k == opReconstruct || k == opDynReconstruct }
func (k opKind) isWrite() bool       { return k == opAdd || k == opRemove }

// spec is one workload: population shape and traffic mix. Requests go
// over HTTP/JSON; the population is ingested over the wire protocol.
type spec struct {
	name string
	// plainSets is the number of plain sets (0: none).
	plainSets int
	// dynKeys is the number of dynamic (deletable) sets.
	dynKeys int
	// sparse places the dynamic sets in a §8 namespace where a few
	// percent of leaves are occupied; otherwise they reuse the ids of
	// the plain sets, so their writes never grow the tree.
	sparse bool
	// wal serves the database through a write-ahead log.
	wal bool
	// main is the workload's traffic: its open loop and closed loop.
	main phase
	// side phases measure the request families main does not send, one
	// family at a time after the main open loop: a result carries every
	// end-to-end metric on every workload, and side loops supply them
	// without changing main's mix.
	side []phase
	// capacity is the closed-loop rate, in requests per second, measured
	// when the benchmark was defined. It fixes the size of the closed
	// loops and must not be re-derived.
	capacity float64
}

// phase is one open-loop traffic mix.
type phase struct {
	// rate is the offered rate in requests per second. For a main phase
	// it is a quarter to a third of the closed-loop capacity measured
	// when the benchmark was defined, frozen here: a later change must
	// not re-derive it.
	rate float64
	// mix is the share of each request class; it sums to 1.
	mix [numOps]float64
}

// writes is the side phase of workloads whose main mix does not write:
// adds and removes on the dynamic sets.
var writes = phase{rate: 400, mix: [numOps]float64{opAdd: 0.6, opRemove: 0.4}}

// specs are the benchmark's workloads. The main mixes stress different
// layers (see README.md).
var specs = []spec{
	{
		// Reconstruction over HTTP/JSON of uniformly chosen keys at M=2^20:
		// leaf scans, hashing and large JSON replies dominate.
		name:      "reconstruct-http",
		plainSets: 1000, dynKeys: 256,
		main:     phase{rate: 75, mix: [numOps]float64{opReconstruct: 0.9, opIntersection: 0.1}},
		side:     []phase{{rate: 600, mix: [numOps]float64{opSample1: 1}}, writes},
		capacity: 160,
	},
	{
		// Dynamic sets in a sparse namespace over HTTP/JSON with a WAL:
		// copy-on-write publishing, counting clones, WAL appends and tree
		// growth dominate.
		name:     "churn-http",
		dynKeys:  500,
		sparse:   true,
		wal:      true,
		main:     phase{rate: 900, mix: [numOps]float64{opAdd: 0.40, opRemove: 0.20, opDynSample: 0.30, opDynReconstruct: 0.10}},
		capacity: 2600,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// idSet is one immutable ground-truth set version, ids ascending.
type idSet struct {
	ids       []uint64
	clustered bool
}

func (s *idSet) has(id uint64) bool {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	return i < len(s.ids) && s.ids[i] == id
}

// population is the generated initial content of the database.
type population struct {
	plainKeys []string
	plain     []*idSet
	dynKeys   []string
	dyn       []*idSet
	// pool is the id universe dynamic adds draw from; spare holds
	// unoccupied leaves (sparse namespace only) whose ids grow the tree.
	pool  []uint64
	spare []int
}

// plainSize returns the size of plain set i: log-uniform over
// [100, 2000], stratified and assigned to sets by a fixed permutation,
// so every population holds the same sizes.
func plainSize(i, n int) int {
	u := (float64((i*389)%n) + 0.5) / float64(n)
	return int(math.Round(100 * math.Pow(20, u)))
}

// plainSeed seeds the plain sets, which do not follow the run seed: at
// M=2^20 one set's cost varies several-fold with its random structure
// (a clustered set's layout sets its backtracks), so plain sets drawn
// per seed would measure the draw rather than the program. The dynamic
// sets, and every request, follow the run seed.
const plainSeed = 1

// setRNG derives the generator of one set from a seed, so sets can be
// generated in parallel and still depend on the seed alone.
func setRNG(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*100_003 + int64(i)))
}

// generate builds the population of sp for seed. A quarter of the sets
// (every index ≡ 3 mod 4) come from the §7 clustered generator with
// p=10; the rest are uniform.
func generate(sp spec, seed int64) (*population, error) {
	p := &population{}
	if sp.plainSets > 0 {
		p.plainKeys = make([]string, sp.plainSets)
		p.plain = make([]*idSet, sp.plainSets)
		errs := make([]error, sp.plainSets)
		var wg sync.WaitGroup
		const workers = 2 // clustered sets cost ~10–40 ms each at M=2^20
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < sp.plainSets; i += workers {
					p.plainKeys[i] = fmt.Sprintf("s%04d", i)
					p.plain[i], errs[i] = genSet(setRNG(plainSeed, 0, i), namespace, plainSize(i, sp.plainSets), i%4 == 3, nil)
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		seen := map[uint64]bool{}
		for _, s := range p.plain {
			for _, id := range s.ids {
				if !seen[id] {
					seen[id] = true
					p.pool = append(p.pool, id)
				}
			}
		}
		sort.Slice(p.pool, func(i, j int) bool { return p.pool[i] < p.pool[j] })
	}
	rng := setRNG(seed, 1, 0)
	if sp.sparse {
		const leaves = 1024
		idx, err := workload.SelectLeavesUniform(rng, leaves, 0.03)
		if err != nil {
			return nil, err
		}
		ns, err := workload.PopulateNamespace(rng, namespace, leaves, idx, 15_000)
		if err != nil {
			return nil, err
		}
		p.pool = ns.IDs
		occupied := map[int]bool{}
		for _, i := range idx {
			occupied[i] = true
		}
		for i := 0; i < leaves; i++ {
			if !occupied[i] {
				p.spare = append(p.spare, i)
			}
		}
	}
	p.dynKeys = make([]string, sp.dynKeys)
	p.dyn = make([]*idSet, sp.dynKeys)
	for i := range p.dyn {
		p.dynKeys[i] = fmt.Sprintf("d%03d", i)
		lo, hi := 16.0, 64.0
		if sp.sparse {
			lo, hi = 20, 200
		}
		n := int(math.Round(lo * math.Pow(hi/lo, rng.Float64())))
		s, err := genSet(setRNG(seed, 2, i), uint64(len(p.pool)), n, i%4 == 3, p.pool)
		if err != nil {
			return nil, err
		}
		p.dyn[i] = s
	}
	return p, nil
}

// genSet draws n distinct indices of [0, m), uniform or clustered, and
// maps them through pool when one is given.
func genSet(rng *rand.Rand, m uint64, n int, clustered bool, pool []uint64) (*idSet, error) {
	var ids []uint64
	var err error
	if clustered {
		ids, err = workload.ClusteredSet(rng, m, n, workload.DefaultClusterP)
	} else {
		ids, err = workload.UniformSet(rng, m, n)
	}
	if err != nil {
		return nil, err
	}
	if pool != nil {
		for i, x := range ids {
			ids[i] = pool[x]
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return &idSet{ids: ids, clustered: clustered}, nil
}

// op is one generated request.
type op struct {
	idx  int
	kind opKind
	key  string
	keyB string   // intersection only
	ids  []uint64 // add/remove
	// dyn is the dynamic key index, -1 for plain requests. Requests to
	// one dynamic key are served in generation order: seq is the ticket.
	dyn int
	seq uint64
	// truth is the ground truth a read is checked against: the set
	// version after every earlier request to the key; truthB is the
	// second set of an intersection.
	truth, truthB *idSet
}

// generator produces the deterministic request sequence of a workload.
// It keeps the shadow state of every dynamic set, so each read carries
// its expected contents and each remove names live ids. Each round
// starts from a freshly set-up server, so reset returns the shadow to
// the population.
//
// Request classes and keys are drawn a block at a time: each block holds
// every class in its exact share of the mix, and each class's keys are a
// stratified sample of the keys ordered by set size, then the block is
// shuffled. The blocks of one loop are of equal size and tile it, so
// every loop holds its exact shares too. A seed therefore varies which
// ids and which order a run sends, not how much of each kind of work it
// holds.
type generator struct {
	sp  spec
	pop *population
	rng *rand.Rand
	// plainBySize and dynBySize are the plain and dynamic keys ordered by
	// shape, then initial set size.
	plainBySize, dynBySize []int
	mix                    [numOps]float64
	block                  []choice
	blockLen, left         int // the loop's block size; its requests not yet in a block
	live                   []*idSet
	seq                    []uint64
	next                   int
}

// choice is one request's class and keys before its ids are drawn: a
// and b are plain ranks (b for intersections only) or a is a dynamic key.
type choice struct {
	kind opKind
	a, b int
}

// maxBlock is the largest number of requests in one stratified block.
const maxBlock = 1000

func newGenerator(sp spec, pop *population, seed int64) *generator {
	g := &generator{sp: sp, pop: pop, rng: setRNG(seed, 3, 0)}
	g.plainBySize, g.dynBySize = bySize(pop.plain), bySize(pop.dyn)
	g.setMix(sp.main.mix, maxBlock)
	g.reset()
	g.seq = make([]uint64, len(pop.dyn))
	return g
}

// reset returns every dynamic set's shadow to its population version.
// Tickets keep counting, so a key's requests stay in one order.
func (g *generator) reset() { g.live = append(g.live[:0], g.pop.dyn...) }

func bySize(sets []*idSet) []int {
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := sets[order[i]], sets[order[j]]
		if a.clustered != b.clustered {
			return b.clustered
		}
		return len(a.ids) < len(b.ids)
	})
	return order
}

// setMix makes the next n requests, a loop, follow mix, from a fresh
// block. Requests past the loop continue in blocks of the same size.
func (g *generator) setMix(mix [numOps]float64, n int) {
	blocks := (n + maxBlock - 1) / maxBlock
	g.mix, g.block = mix, nil
	g.blockLen, g.left = (n+blocks-1)/blocks, n
}

// strata returns n keys in random order: a stratified uniform sample of
// the keys ordered by shape and set size, so that clustered and uniform
// sets (whose samples are members at very different rates) and small and
// large sets (which cost a reconstruction very different amounts) come in
// their exact shares.
func (g *generator) strata(n int, bySize []int) []int {
	out := make([]int, n)
	for j := range out {
		u := (float64(j) + g.rng.Float64()) / float64(n)
		out[j] = bySize[min(int(u*float64(len(bySize))), len(bySize)-1)]
	}
	g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fill draws the next block: each class's count is its share of the
// block, rounded by largest remainder.
func (g *generator) fill() {
	size := g.blockLen
	if g.left > 0 {
		size = min(size, g.left)
		g.left -= size
	}
	var counts [numOps]int
	type rem struct {
		k opKind
		r float64
	}
	var rems []rem
	left := size
	for k, share := range g.mix {
		x := share * float64(size)
		counts[k] = int(x)
		left -= counts[k]
		if share > 0 {
			rems = append(rems, rem{opKind(k), x - float64(counts[k])})
		}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].r > rems[j].r })
	for i := 0; i < left; i++ {
		counts[rems[i%len(rems)].k]++
	}
	g.block = g.block[:0]
	for k, c := range counts {
		if c == 0 {
			continue
		}
		kind := opKind(k)
		var a, b []int
		switch kind {
		case opSample1, opReconstruct:
			a = g.strata(c, g.plainBySize)
		case opIntersection:
			a, b = g.strata(c, g.plainBySize), g.strata(c, g.plainBySize)
		default:
			a = g.strata(c, g.dynBySize)
		}
		for j := range a {
			ch := choice{kind: kind, a: a[j]}
			if b != nil {
				ch.b = b[j]
			}
			g.block = append(g.block, ch)
		}
	}
	g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
}

// gen returns the next request.
func (g *generator) gen() *op {
	if len(g.block) == 0 {
		g.fill()
	}
	ch := g.block[0]
	g.block = g.block[1:]
	o := &op{idx: g.next, kind: ch.kind, dyn: -1}
	g.next++
	switch ch.kind {
	case opSample1, opReconstruct:
		o.key, o.truth = g.pop.plainKeys[ch.a], g.pop.plain[ch.a]
	case opIntersection:
		o.key, o.truth = g.pop.plainKeys[ch.a], g.pop.plain[ch.a]
		o.keyB, o.truthB = g.pop.plainKeys[ch.b], g.pop.plain[ch.b]
	default:
		d := ch.a
		o.dyn, o.key, o.seq = d, g.pop.dynKeys[d], g.seq[d]
		g.seq[d]++
		cur := g.live[d]
		switch {
		case ch.kind == opRemove && len(cur.ids) > 8:
			o.ids = g.removeIDs(cur)
			g.live[d] = without(cur, o.ids)
		case ch.kind.isWrite():
			// A remove that would leave fewer than 8 ids becomes an add,
			// so no read ever meets an empty set.
			o.kind = opAdd
			o.ids = g.addIDs(cur)
			g.live[d] = with(cur, o.ids)
		default:
			o.truth = cur
		}
	}
	return o
}

// addIDs picks 1–16 ids not live in cur. In a sparse namespace a tenth
// of the adds take their ids from an unoccupied leaf, growing the tree.
func (g *generator) addIDs(cur *idSet) []uint64 {
	n := 1 + g.rng.Intn(16)
	out := make([]uint64, 0, n)
	picked := map[uint64]bool{}
	fresh := len(g.pop.spare) > 0 && g.rng.Intn(10) == 0
	leaf := 0
	if fresh {
		leaf = g.pop.spare[g.rng.Intn(len(g.pop.spare))]
	}
	for len(out) < n {
		var id uint64
		if fresh {
			id = uint64(leaf)*1024 + uint64(g.rng.Intn(1024))
		} else {
			id = g.pop.pool[g.rng.Intn(len(g.pop.pool))]
		}
		if !picked[id] && !cur.has(id) {
			picked[id] = true
			out = append(out, id)
		}
	}
	return out
}

// removeIDs picks 1–16 distinct live ids of cur, leaving at least 8.
func (g *generator) removeIDs(cur *idSet) []uint64 {
	n := 1 + g.rng.Intn(16)
	if max := len(cur.ids) - 8; n > max {
		n = max
	}
	perm := g.rng.Perm(len(cur.ids))[:n]
	out := make([]uint64, n)
	for i, j := range perm {
		out[i] = cur.ids[j]
	}
	return out
}

func with(s *idSet, ids []uint64) *idSet {
	out := append(append(make([]uint64, 0, len(s.ids)+len(ids)), s.ids...), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return &idSet{ids: out, clustered: s.clustered}
}

func without(s *idSet, ids []uint64) *idSet {
	drop := map[uint64]bool{}
	for _, id := range ids {
		drop[id] = true
	}
	out := make([]uint64, 0, len(s.ids))
	for _, id := range s.ids {
		if !drop[id] {
			out = append(out, id)
		}
	}
	return &idSet{ids: out, clustered: s.clustered}
}

// digest hashes the population and a request schedule, so two runs can
// show they drove the same inputs.
func digest(pop *population, ops []*op) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	sets := func(keys []string, sets []*idSet) {
		for i, k := range keys {
			h.Write([]byte(k))
			put(uint64(len(sets[i].ids)))
			for _, id := range sets[i].ids {
				put(id)
			}
		}
	}
	sets(pop.plainKeys, pop.plain)
	sets(pop.dynKeys, pop.dyn)
	for _, o := range ops {
		put(uint64(o.kind))
		h.Write([]byte(o.key))
		h.Write([]byte(o.keyB))
		for _, id := range o.ids {
			put(id)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
