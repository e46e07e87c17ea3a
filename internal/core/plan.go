package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// DefaultCostRatioDivisor calibrates the intersection-to-membership cost
// ratio as icost/mcost = m / DefaultCostRatioDivisor when no measured ratio
// is supplied. An intersection touches all m bits while a membership query
// touches k; the divisor 350 reproduces the depth/M⊥ choices of the
// paper's Table 3 (M = 10⁷) exactly and Table 2 within one level.
const DefaultCostRatioDivisor = 350

// Plan is the outcome of the §5.4 parameter planning: Bloom-filter
// parameters chosen for a desired accuracy plus the tree depth chosen by
// the icost/mcost tradeoff.
type Plan struct {
	bloom.Params
	// Depth is the number of halvings (the tree has 2^Depth leaf ranges).
	Depth int
	// LeafRange is M⊥, the number of namespace elements per leaf.
	LeafRange uint64
	// CostRatio is the icost/mcost ratio the depth choice used.
	CostRatio float64
}

// TreeConfig converts the plan into a buildable Config.
func (p Plan) TreeConfig(kind hashfam.Kind, seed uint64) Config {
	return Config{
		Namespace: p.M,
		Bits:      p.Bits,
		K:         p.K,
		HashKind:  kind,
		Seed:      seed,
		Depth:     p.Depth,
	}
}

// LeafRangeForRatio returns the largest leaf range N⊥ satisfying the §5.4
// rule N⊥ / log₂(N⊥) ≤ icost/mcost: below that size it is cheaper to
// brute-force the leaf with membership queries than to keep intersecting
// down the tree.
func LeafRangeForRatio(ratio float64) uint64 {
	if ratio < 2 {
		return 2 // log2(1) = 0; the rule is vacuous below 2
	}
	// N/log2(N) is increasing for N >= 3; binary-search the threshold.
	lo, hi := uint64(2), uint64(1)<<62
	cost := func(n uint64) float64 { return float64(n) / math.Log2(float64(n)) }
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if cost(mid) <= ratio {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// PlanTree performs the full §5.4 planning: it sizes the Bloom filter for
// the desired sampling accuracy (via bloom.PlanParams) and picks the tree
// depth from the intersection/membership cost ratio. costRatio <= 0 uses
// the default model m/DefaultCostRatioDivisor; pass a measured ratio from
// CalibrateCosts for machine-specific planning.
func PlanTree(accuracy float64, n, M uint64, k int, costRatio float64) (Plan, error) {
	params, err := bloom.PlanParams(accuracy, n, M, k)
	if err != nil {
		return Plan{}, err
	}
	if costRatio <= 0 {
		costRatio = float64(params.Bits) / DefaultCostRatioDivisor
	}
	leaf := LeafRangeForRatio(costRatio)
	if leaf > M {
		leaf = M
	}
	depth := 0
	for r := M; r > leaf; r = (r + 1) / 2 {
		depth++
	}
	plan := Plan{Params: params, Depth: depth, CostRatio: costRatio}
	plan.LeafRange = leafRangeAtDepth(M, depth)
	return plan, nil
}

func leafRangeAtDepth(M uint64, depth int) uint64 {
	r := M
	for i := 0; i < depth; i++ {
		r = (r + 1) / 2
	}
	return r
}

// CostEstimate holds measured per-operation costs on this machine.
type CostEstimate struct {
	// Membership is the cost of one membership query (k hashes + probes).
	Membership time.Duration
	// Intersection is the cost of one intersection-size estimation as a
	// tree descent pays it: one AndCount pass over two m-bit filters,
	// with the node's and the query's set-bit counts already known.
	Intersection time.Duration
}

// Ratio returns icost/mcost, the quantity §5.4's rule consumes.
func (c CostEstimate) Ratio() float64 {
	if c.Membership <= 0 {
		return 0
	}
	return float64(c.Intersection) / float64(c.Membership)
}

// CalibrateCosts measures the membership and intersection costs for the
// given filter parameters on the current machine by timing repeated
// operations on representative filters. iters controls measurement effort
// (0 means a reasonable default).
func CalibrateCosts(kind hashfam.Kind, m uint64, k int, iters int) (CostEstimate, error) {
	if iters <= 0 {
		iters = 20000
	}
	fam, err := hashfam.New(kind, m, k, 12345)
	if err != nil {
		return CostEstimate{}, err
	}
	a := bloom.New(fam)
	b := bloom.New(fam)
	for x := uint64(0); x < 1000; x++ {
		a.Add(x)
		b.Add(x * 3)
	}

	var sink bool
	start := time.Now()
	for i := 0; i < iters; i++ {
		sink = a.Contains(uint64(i)) != sink
	}
	mcost := time.Since(start) / time.Duration(iters)

	// Time the per-child estimate a descent runs, so §5.4's ratio is what
	// the tree pays: node count cached, query counted once.
	nd := newNode(0, 1, a)
	bOnes := b.SetBits()
	interIters := iters/20 + 1
	var fsink float64
	start = time.Now()
	for i := 0; i < interIters; i++ {
		est, _, _ := nd.estimate(b, bOnes)
		fsink += est
	}
	icost := time.Since(start) / time.Duration(interIters)
	_ = sink
	_ = fsink
	if mcost <= 0 {
		mcost = time.Nanosecond
	}
	return CostEstimate{Membership: mcost, Intersection: icost}, nil
}

// String renders the cost estimate for reports.
func (c CostEstimate) String() string {
	return fmt.Sprintf("membership=%v intersection=%v ratio=%.1f", c.Membership, c.Intersection, c.Ratio())
}
