package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// testConfig returns a tree config for a small namespace with filter
// parameters planned for the given accuracy.
func testConfig(t testing.TB, M uint64, n uint64, acc float64, depth int) Config {
	t.Helper()
	p, err := bloom.PlanParams(acc, n, M, 3)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Namespace: M,
		Bits:      p.Bits,
		K:         3,
		HashKind:  hashfam.KindMurmur3,
		Seed:      7,
		Depth:     depth,
	}
}

func buildQueryFilter(t testing.TB, tree *Tree, set []uint64) *bloom.Filter {
	t.Helper()
	q := tree.NewQueryFilter()
	for _, x := range set {
		q.Add(x)
	}
	return q
}

func uniformSet(rng *rand.Rand, M uint64, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		x := rng.Uint64() % M
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Namespace: 1, Bits: 100, K: 3, Depth: 0},                       // tiny namespace
		{Namespace: 100, Bits: 1, K: 3, Depth: 0},                       // tiny filter
		{Namespace: 100, Bits: 100, K: 0, Depth: 0},                     // no hashes
		{Namespace: 100, Bits: 100, K: 3, Depth: -1},                    // negative depth
		{Namespace: 100, Bits: 100, K: 3, Depth: 20},                    // depth > log2(M)
		{Namespace: 100, Bits: 100, K: 3, Depth: 2, EmptyThreshold: -1}, // bad threshold
	}
	for i, cfg := range cases {
		if _, err := BuildTree(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestBuildFullStructure(t *testing.T) {
	cfg := testConfig(t, 1024, 100, 0.8, 4)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() != 31 { // 2^5 - 1 for depth 4
		t.Fatalf("Nodes = %d, want 31", tree.Nodes())
	}
	if tree.Depth() != 4 {
		t.Fatalf("Depth = %d", tree.Depth())
	}
	if tree.LeafRange() != 64 {
		t.Fatalf("LeafRange = %d, want 64", tree.LeafRange())
	}
	if tree.Pruned() {
		t.Fatal("full tree reports pruned")
	}
	// Every node's filter must contain every element of its range
	// (no false negatives), and the laminar property must hold:
	// parent = union of children.
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		for x := n.lo; x < n.hi; x++ {
			if !n.filter().Contains(x) {
				t.Fatalf("node [%d,%d) missing element %d", n.lo, n.hi, x)
			}
		}
		if left, right := n.children(); left != nil || right != nil {
			u, err := left.filter().Union(right.filter())
			if err != nil {
				t.Fatal(err)
			}
			if !u.Equal(n.filter()) {
				t.Fatalf("node [%d,%d) is not the union of its children", n.lo, n.hi)
			}
			if left.lo != n.lo || right.hi != n.hi || left.hi != right.lo {
				t.Fatalf("children do not partition [%d,%d)", n.lo, n.hi)
			}
			walk(left)
			walk(right)
		}
	}
	walk(tree.rootNode())
}

func TestBuildFullNonPowerOfTwoNamespace(t *testing.T) {
	cfg := testConfig(t, 1000, 50, 0.8, 5)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Leaf ranges must cover [0,1000) exactly, without gaps or overlaps.
	var leaves []*node
	var walk func(n *node)
	walk = func(n *node) {
		left, right := n.children()
		if left == nil && right == nil {
			leaves = append(leaves, n)
			return
		}
		walk(left)
		walk(right)
	}
	walk(tree.rootNode())
	if len(leaves) != 32 {
		t.Fatalf("leaves = %d, want 32", len(leaves))
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].lo < leaves[j].lo })
	pos := uint64(0)
	for _, l := range leaves {
		if l.lo != pos {
			t.Fatalf("gap/overlap at %d (leaf starts %d)", pos, l.lo)
		}
		if l.hi-l.lo > tree.LeafRange() {
			t.Fatalf("leaf [%d,%d) larger than LeafRange %d", l.lo, l.hi, tree.LeafRange())
		}
		pos = l.hi
	}
	if pos != 1000 {
		t.Fatalf("coverage ends at %d, want 1000", pos)
	}
}

func TestSampleReturnsOnlyPositives(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := testConfig(t, 100000, 500, 0.9, 7)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := uniformSet(rng, 100000, 500)
	q := buildQueryFilter(t, tree, set)
	for i := 0; i < 300; i++ {
		x, err := tree.Sample(q, rng, nil)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if !q.Contains(x) {
			t.Fatalf("sample %d is not a positive of the query filter", x)
		}
	}
}

func TestSampleMostlyTrueElements(t *testing.T) {
	// At accuracy 0.9 at least ~90% of samples should come from the true
	// set; give slack to 0.8.
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig(t, 100000, 500, 0.9, 7)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := uniformSet(rng, 100000, 500)
	inSet := make(map[uint64]bool, len(set))
	for _, x := range set {
		inSet[x] = true
	}
	q := buildQueryFilter(t, tree, set)
	hits := 0
	const rounds = 500
	for i := 0; i < rounds; i++ {
		x, err := tree.Sample(q, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inSet[x] {
			hits++
		}
	}
	if frac := float64(hits) / rounds; frac < 0.8 {
		t.Fatalf("true-element fraction %.2f < 0.8", frac)
	}
}

func TestSampleEmptyQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := testConfig(t, 10000, 100, 0.9, 5)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := tree.NewQueryFilter()
	if _, err := tree.Sample(q, rng, nil); err != ErrNoSample {
		t.Fatalf("empty query: err = %v, want ErrNoSample", err)
	}
}

func TestSampleIncompatibleQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := testConfig(t, 10000, 100, 0.9, 5)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other := bloom.New(hashfam.MustNew(hashfam.KindMurmur3, 999, 3, 7))
	if _, err := tree.Sample(other, rng, nil); err == nil {
		t.Fatal("incompatible query accepted")
	}
	if _, err := tree.Reconstruct(other, PruneByEstimate, nil); err == nil {
		t.Fatal("incompatible query accepted by Reconstruct")
	}
	if _, err := tree.SampleN(other, 3, true, rng, nil); err == nil {
		t.Fatal("incompatible query accepted by SampleN")
	}
}

func TestSampleSingleton(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := testConfig(t, 10000, 100, 0.9, 5)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, []uint64{4321})
	for i := 0; i < 50; i++ {
		x, err := tree.Sample(q, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !q.Contains(x) {
			t.Fatalf("sample %d not positive", x)
		}
	}
}

func TestSampleOpsCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := testConfig(t, 100000, 500, 0.9, 7)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, uniformSet(rng, 100000, 500))
	var ops Ops
	if _, err := tree.Sample(q, rng, &ops); err != nil {
		t.Fatal(err)
	}
	if ops.NodesVisited < uint64(tree.Depth()) {
		t.Fatalf("NodesVisited = %d < depth %d", ops.NodesVisited, tree.Depth())
	}
	if ops.Intersections == 0 || ops.Memberships == 0 || ops.LeavesScanned == 0 {
		t.Fatalf("ops not counted: %+v", ops)
	}
	// Memberships should be a small multiple of the leaf range, far below
	// the dictionary attack's M.
	if ops.Memberships >= cfg.Namespace/2 {
		t.Fatalf("memberships %d close to namespace scan", ops.Memberships)
	}
}

// Proposition 5.3 sanity check: the expected number of nodes visited is
// O(log(M/M⊥) + M·k²·n/m); verify that the measured average is below a
// small constant times that bound.
func TestSampleNodesVisitedWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	M := uint64(1 << 17)
	n := uint64(200)
	cfg := testConfig(t, M, n, 0.9, 8)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, uniformSet(rng, M, int(n)))
	var total uint64
	const rounds = 200
	for i := 0; i < rounds; i++ {
		var ops Ops
		if _, err := tree.Sample(q, rng, &ops); err != nil {
			t.Fatal(err)
		}
		total += ops.NodesVisited
	}
	avg := float64(total) / rounds
	k := float64(cfg.K)
	bound := float64(tree.Depth()) + float64(M)*k*k*float64(n)/float64(cfg.Bits)
	if avg > 4*bound+8 {
		t.Fatalf("avg nodes visited %.1f exceeds 4x bound %.1f", avg, bound)
	}
}

func TestOpsAddString(t *testing.T) {
	a := Ops{Intersections: 1, Memberships: 2, NodesVisited: 3, LeavesScanned: 4, Backtracks: 5}
	b := a
	a.Add(b)
	if a.Intersections != 2 || a.Memberships != 4 || a.NodesVisited != 6 ||
		a.LeavesScanned != 8 || a.Backtracks != 10 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}

func TestReconstructExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	M := uint64(50000)
	cfg := testConfig(t, M, 300, 0.9, 6)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := uniformSet(rng, M, 300)
	q := buildQueryFilter(t, tree, set)

	got, err := tree.Reconstruct(q, PruneByAndBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: S ∪ S(B) = all x in [0,M) with q.Contains(x).
	var want []uint64
	for x := uint64(0); x < M; x++ {
		if q.Contains(x) {
			want = append(want, x)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("reconstructed %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("reconstruction not sorted")
	}
}

func TestReconstructEmptyQuery(t *testing.T) {
	cfg := testConfig(t, 10000, 100, 0.9, 5)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.Reconstruct(tree.NewQueryFilter(), PruneByEstimate, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty query reconstructed %d elements", len(got))
	}
}

func TestReconstructOpsBelowDictionaryAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	M := uint64(1 << 17)
	cfg := testConfig(t, M, 200, 0.9, 9)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, uniformSet(rng, M, 200))
	var ops Ops
	if _, err := tree.Reconstruct(q, PruneByEstimate, &ops); err != nil {
		t.Fatal(err)
	}
	if ops.Memberships >= M {
		t.Fatalf("reconstruction used %d memberships (>= namespace %d)", ops.Memberships, M)
	}
}

func TestSampleNWithReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	M := uint64(100000)
	cfg := testConfig(t, M, 500, 0.9, 7)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, uniformSet(rng, M, 500))
	got, err := tree.SampleN(q, 100, true, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) > 100 {
		t.Fatalf("SampleN returned %d samples", len(got))
	}
	for _, x := range got {
		if !q.Contains(x) {
			t.Fatalf("multi-sample %d not a positive", x)
		}
	}
}

func TestSampleNWithoutReplacementDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	M := uint64(100000)
	cfg := testConfig(t, M, 500, 0.9, 7)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, uniformSet(rng, M, 500))
	got, err := tree.SampleN(q, 50, false, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, x := range got {
		if seen[x] {
			t.Fatalf("duplicate %d in without-replacement multi-sample", x)
		}
		seen[x] = true
	}
}

func TestSampleNFewerIntersectionsThanRepeated(t *testing.T) {
	// One r-path pass must not cost more intersections than r independent
	// samples (§5.3's claimed benefit).
	rng := rand.New(rand.NewSource(47))
	M := uint64(100000)
	cfg := testConfig(t, M, 1000, 0.9, 7)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, uniformSet(rng, M, 1000))
	const r = 50

	var multi Ops
	if _, err := tree.SampleN(q, r, true, rng, &multi); err != nil {
		t.Fatal(err)
	}
	var single Ops
	for i := 0; i < r; i++ {
		if _, err := tree.Sample(q, rng, &single); err != nil {
			t.Fatal(err)
		}
	}
	if multi.Intersections > single.Intersections {
		t.Fatalf("multi-sample intersections %d > %d for %d repeated samples",
			multi.Intersections, single.Intersections, r)
	}
}

func TestSampleNEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	cfg := testConfig(t, 10000, 100, 0.9, 5)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, []uint64{1, 2, 3})
	if got, _ := tree.SampleN(q, 0, true, rng, nil); got != nil {
		t.Fatal("r=0 returned samples")
	}
	if got, _ := tree.SampleN(tree.NewQueryFilter(), 5, true, rng, nil); len(got) != 0 {
		t.Fatal("empty query returned samples")
	}
	// Without replacement, r greater than the positive count returns at
	// most the distinct positives.
	got, err := tree.SampleN(q, 1000, false, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	recon, _ := tree.Reconstruct(q, PruneByAndBits, nil)
	if len(got) > len(recon) {
		t.Fatalf("without replacement returned %d > %d positives", len(got), len(recon))
	}
}

func TestMemoryBytes(t *testing.T) {
	cfg := testConfig(t, 1024, 100, 0.8, 3)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perNode := (cfg.Bits + 63) / 64 * 8
	if got := tree.MemoryBytes(); got != perNode*15 {
		t.Fatalf("MemoryBytes = %d, want %d", got, perNode*15)
	}
}

func TestDepthZeroTreeIsSingleLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cfg := testConfig(t, 1000, 50, 0.9, 0)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() != 1 {
		t.Fatalf("Nodes = %d, want 1", tree.Nodes())
	}
	q := buildQueryFilter(t, tree, []uint64{123, 456})
	x, err := tree.Sample(q, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Contains(x) {
		t.Fatal("sample not positive")
	}
}

func TestPlanTreeMatchesPaperTable3(t *testing.T) {
	// With the default cost model the planned depth should track the
	// paper's Table 3 (M = 10⁷, n = 10³) within one level; no single
	// icost/mcost model reproduces every row of the paper's table exactly
	// (its rows are mutually inconsistent under the §5.4 rule — see
	// EXPERIMENTS.md), so the anchors at 0.5, 0.9 and 1.0 are checked
	// exactly and the rest within ±1.
	cases := []struct {
		acc       float64
		wantDepth int
		exact     bool
	}{
		{0.5, 13, true},
		{0.6, 13, false},
		{0.7, 13, false},
		{0.8, 13, false},
		{0.9, 12, true},
		{1.0, 10, true},
	}
	prevDepth := 1 << 30
	for _, c := range cases {
		p, err := PlanTree(c.acc, 1000, 10_000_000, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		diff := p.Depth - c.wantDepth
		if diff < 0 {
			diff = -diff
		}
		if (c.exact && diff != 0) || diff > 1 {
			t.Errorf("acc %.1f: depth = %d, want %d±%d (m=%d ratio=%.1f)",
				c.acc, p.Depth, c.wantDepth, b2i(!c.exact), p.Bits, p.CostRatio)
		}
		// Depth must be non-increasing in accuracy (larger filters make
		// intersections dearer, so the tree gets shallower).
		if p.Depth > prevDepth {
			t.Errorf("acc %.1f: depth %d increased from %d", c.acc, p.Depth, prevDepth)
		}
		prevDepth = p.Depth
		// Leaf range must correspond to the depth.
		if want := leafRangeAtDepth(10_000_000, p.Depth); p.LeafRange != want {
			t.Errorf("acc %.1f: leaf = %d, want %d", c.acc, p.LeafRange, want)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestPlanTreeCustomRatio(t *testing.T) {
	p, err := PlanTree(0.9, 1000, 1_000_000, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if p.CostRatio != 200 {
		t.Fatalf("CostRatio = %v", p.CostRatio)
	}
	// N⊥/log2(N⊥) <= 200 → N⊥ max is 1246; leaf range must be ≤ that.
	if float64(p.LeafRange)/math.Log2(float64(p.LeafRange)) > 200 {
		t.Fatalf("leaf range %d violates cost rule", p.LeafRange)
	}
}

func TestLeafRangeForRatio(t *testing.T) {
	if got := LeafRangeForRatio(1); got != 2 {
		t.Fatalf("ratio 1: %d, want 2", got)
	}
	// For ratio r, result N satisfies N/log2(N) <= r < (N+1)/log2(N+1).
	for _, r := range []float64{10, 100, 350, 1000} {
		n := LeafRangeForRatio(r)
		if float64(n)/math.Log2(float64(n)) > r {
			t.Fatalf("ratio %v: N=%d violates rule", r, n)
		}
		np := float64(n + 1)
		if np/math.Log2(np) <= r {
			t.Fatalf("ratio %v: N=%d not maximal", r, n)
		}
	}
}

func TestPlanTreeConfigRoundTrip(t *testing.T) {
	p, err := PlanTree(0.9, 1000, 1_000_000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.TreeConfig(hashfam.KindMurmur3, 99)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != p.Depth || tree.Namespace() != 1_000_000 {
		t.Fatal("config round trip lost parameters")
	}
}

func TestCalibrateCosts(t *testing.T) {
	c, err := CalibrateCosts(hashfam.KindMurmur3, 60870, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Membership <= 0 || c.Intersection <= 0 {
		t.Fatalf("non-positive costs: %+v", c)
	}
	if c.Ratio() <= 0 {
		t.Fatalf("ratio = %v", c.Ratio())
	}
	if c.String() == "" {
		t.Fatal("empty String")
	}
	if _, err := CalibrateCosts("nope", 100, 3, 10); err == nil {
		t.Fatal("bad kind accepted")
	}
}
