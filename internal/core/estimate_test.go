package core

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bloom"
)

// estimateTrees builds one tree for each way a tree comes to exist: full,
// parallel-built, pruned, grown by InsertBatch, grown concurrently while
// queries run, and marshal round-tripped (full and pruned).
func estimateTrees(t *testing.T) map[string]*Tree {
	t.Helper()
	const M = 1 << 14
	cfg := testConfig(t, M, 200, 0.9, 6)
	occupied := uniformSet(rand.New(rand.NewSource(11)), M, 600)
	must := func(tree *Tree, err error) *Tree {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	roundTrip := func(tree *Tree) *Tree {
		t.Helper()
		var buf bytes.Buffer
		if _, err := tree.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return must(ReadTree(&buf))
	}

	trees := map[string]*Tree{
		"full":     must(BuildTree(cfg)),
		"parallel": must(BuildTreeParallel(cfg, 4)),
		"pruned":   must(BuildPruned(cfg, occupied)),
	}
	trees["full-roundtrip"] = roundTrip(trees["full"])
	trees["pruned-roundtrip"] = roundTrip(trees["pruned"])

	grown := must(BuildPruned(cfg, occupied[:100]))
	for i := 100; i < len(occupied); i += 50 {
		if err := grown.InsertBatch(occupied[i : i+50]); err != nil {
			t.Fatal(err)
		}
	}
	trees["grown"] = grown

	// Writers grow disjoint quarters while readers descend, so estimates
	// fill node counts of versions that growth then replaces.
	concurrent := must(BuildPruned(cfg, occupied[:20]))
	q := buildQueryFilter(t, concurrent, occupied[:20])
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 20 + w*10; i < len(occupied); i += 40 {
				if err := concurrent.InsertBatch(occupied[i : i+10]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 30; i++ {
				concurrent.Sample(q, rng, nil)
				concurrent.Reconstruct(q, PruneByEstimate, nil)
			}
		}(w)
	}
	wg.Wait()
	trees["grown-concurrent"] = concurrent
	return trees
}

// estimateQueries returns an empty, a random and a near-saturated query
// for tree.
func estimateQueries(t *testing.T, tree *Tree, seed int64) map[string]*bloom.Filter {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	M := tree.Namespace()
	saturated := tree.NewQueryFilter()
	for saturated.FillRatio() < 0.95 {
		saturated.Add(rng.Uint64() % M)
	}
	return map[string]*bloom.Filter{
		"empty":     tree.NewQueryFilter(),
		"random":    buildQueryFilter(t, tree, uniformSet(rng, M, 300)),
		"saturated": saturated,
	}
}

// forEachNode visits every node of tree.
func forEachNode(tree *Tree, fn func(n *node)) {
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		fn(n)
		left, right := n.children()
		walk(left)
		walk(right)
	}
	walk(tree.rootNode())
}

// TestNodeEstimateMatchesThreePass pins the one-pass descent estimate to
// the three-pass bloom.EstimateIntersectionOf, exactly, on every node of
// every kind of tree: the cached node count must equal the filter's set
// bits, and the float64 estimates must be identical, so sampling and
// reconstruction make the same choices as before the cache. The checks
// run from several goroutines at once on trees whose counts are not yet
// filled, so under -race they cover the lazy fill.
func TestNodeEstimateMatchesThreePass(t *testing.T) {
	for name, tree := range estimateTrees(t) {
		queries := estimateQueries(t, tree, 5)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				forEachNode(tree, func(n *node) {
					v := n.f.Load()
					want := v.f.SetBits()
					if c := v.ones.Load(); c != 0 && c-1 != want {
						t.Errorf("%s [%d,%d): cached count %d, filter has %d", name, n.lo, n.hi, c-1, want)
					}
					for qname, q := range queries {
						est, ones, tand := n.estimate(q, q.SetBits())
						ref := bloom.EstimateIntersectionOf(v.f, q)
						if math.Float64bits(est) != math.Float64bits(ref) {
							t.Errorf("%s [%d,%d) %s query: estimate %v, three-pass %v", name, n.lo, n.hi, qname, est, ref)
						}
						if ones != want || v.ones.Load() != want+1 {
							t.Errorf("%s [%d,%d): estimate used count %d (cached %d), filter has %d",
								name, n.lo, n.hi, ones, v.ones.Load()-1, want)
						}
						if tand != v.f.IntersectionSetBits(q) {
							t.Errorf("%s [%d,%d) %s query: AND count %d, want %d", name, n.lo, n.hi, qname, tand, v.f.IntersectionSetBits(q))
						}
					}
				})
			}()
		}
		wg.Wait()
	}
}

// threeCountWeight is UniformSampler.childWeight computed from three
// fresh popcounts, as the sampler did before node counts were cached.
func threeCountWeight(s *UniformSampler, child *node, q *bloom.Filter, nHat float64) float64 {
	if child == nil {
		return 0
	}
	cf := child.filter()
	m, k := cf.M(), cf.K()
	t1, t2, tand := cf.SetBits(), q.SetBits(), cf.IntersectionSetBits(q)
	est := bloom.EstimateIntersection(m, k, t1, t2, tand)
	if est < 0 || math.IsNaN(est) {
		est = 0
	}
	if math.IsInf(est, 1) || est > nHat {
		est = nHat
	}
	if est > 0 && est < nHat {
		sigmaBits := 1.5 * math.Sqrt(float64(t1)*float64(t2)/float64(m))
		lo := tand - uint64(sigmaBits)
		if sigmaBits >= float64(tand) {
			lo = 0
		}
		estLo := bloom.EstimateIntersection(m, k, t1, t2, lo)
		if math.IsNaN(estLo) || math.IsInf(estLo, 0) || estLo < 0 {
			estLo = 0
		}
		est = estLo
	}
	frac := float64(child.hi-child.lo) / float64(s.t.cfg.Namespace)
	return est + s.uniformMix*nHat*frac
}

// TestUniformChildWeightMatchesThreeCount pins the uniform sampler's
// proposal weights, which now read the cached node count and a query
// count taken once per attempt, to the three-count formula.
func TestUniformChildWeightMatchesThreeCount(t *testing.T) {
	for name, tree := range estimateTrees(t) {
		for qname, q := range estimateQueries(t, tree, 6) {
			s, err := tree.NewUniformSampler(q)
			if err != nil {
				t.Fatal(err)
			}
			nHat := math.Float64frombits(s.nHatBits.Load())
			qOnes := q.SetBits()
			forEachNode(tree, func(n *node) {
				left, right := n.children()
				for _, child := range []*node{left, right} {
					got := s.childWeight(child, q, qOnes, nHat, nil)
					want := threeCountWeight(s, child, q, nHat)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s %s query, child of [%d,%d): weight %v, three-count %v", name, qname, n.lo, n.hi, got, want)
					}
				}
			})
		}
	}
}
