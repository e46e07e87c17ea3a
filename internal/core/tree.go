// Package core implements the paper's primary contribution: the
// BloomSampleTree (§5) and its Pruned variant (§5.2, §8), with the
// BSTSample sampling algorithm (Algorithm 1), single-pass multi-item
// sampling (§5.3), set reconstruction (§6), empty-intersection
// thresholding (§5.6), and the cost-model-driven choice of the leaf range
// M⊥ (§5.4).
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// DefaultEmptyThreshold is the default estimated-intersection size below
// which an intersection is treated as empty (§5.6). A single spurious set
// bit yields a small but non-zero estimate; 0.5 prunes those while keeping
// any branch estimated to hold at least one element.
const DefaultEmptyThreshold = 0.5

// Config describes a BloomSampleTree. The Bloom-filter parameters (Bits,
// K, HashKind, Seed) must match the query Bloom filters the tree will be
// used with (§5.1).
type Config struct {
	// Namespace is the size M of the namespace [0, M).
	Namespace uint64
	// Bits is the Bloom-filter size m used at every node.
	Bits uint64
	// K is the number of hash functions.
	K int
	// HashKind selects the hash family (default Murmur3).
	HashKind hashfam.Kind
	// Seed derives the hash functions deterministically.
	Seed uint64
	// Depth is the number of times the namespace is halved; leaves cover
	// ranges of about Namespace/2^Depth elements (M⊥ in the paper). Use
	// PlanTree to derive it from the cost model of §5.4.
	Depth int
	// EmptyThreshold is the estimated-intersection size below which a
	// branch is pruned (§5.6); 0 means DefaultEmptyThreshold.
	EmptyThreshold float64
}

func (c *Config) validate() error {
	if c.Namespace < 2 {
		return fmt.Errorf("core: namespace size %d too small", c.Namespace)
	}
	if c.Bits < 2 {
		return fmt.Errorf("core: filter size %d too small", c.Bits)
	}
	if c.K < 1 {
		return fmt.Errorf("core: k = %d, need k >= 1", c.K)
	}
	if c.Depth < 0 {
		return fmt.Errorf("core: depth = %d, need depth >= 0", c.Depth)
	}
	if maxDepth := int(math.Ceil(math.Log2(float64(c.Namespace)))); c.Depth > maxDepth {
		return fmt.Errorf("core: depth %d exceeds log2(M) = %d", c.Depth, maxDepth)
	}
	if c.EmptyThreshold < 0 {
		return fmt.Errorf("core: negative empty threshold %v", c.EmptyThreshold)
	}
	return nil
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HashKind == "" {
		out.HashKind = hashfam.DefaultKind
	}
	if out.EmptyThreshold == 0 {
		out.EmptyThreshold = DefaultEmptyThreshold
	}
	return out
}

// node is one BloomSampleTree node covering the namespace range [lo, hi).
// In a pruned tree, children covering unoccupied ranges are nil.
//
// The filter and child pointers are atomic so that pruned-tree growth can
// publish copy-on-write updates (a fresh immutable filter, or a fully
// built private subtree) with single stores while readers traverse
// lock-free. Filters reachable from a node are immutable: growth swaps
// the pointer to a CloneAdd result instead of mutating in place. lo and
// hi never change after the node is created.
type node struct {
	lo, hi      uint64
	f           atomic.Pointer[nodeFilter]
	left, right atomic.Pointer[node]
}

// nodeFilter is one published version of a node's Bloom filter. The
// filter never changes once published, so its set-bit count is a
// property of the version. It is counted on the first estimate against
// the version, not at publish: growth republishes every spine node on
// every insert batch, and counting there would add a pass to each write.
type nodeFilter struct {
	f *bloom.Filter
	// ones is the filter's set-bit count plus one; 0 means not yet
	// counted. Racing first readers store the same value.
	ones atomic.Uint64
}

// newNode returns a node over [lo, hi) holding f (which may be nil during
// private subtree construction).
func newNode(lo, hi uint64, f *bloom.Filter) *node {
	n := &node{lo: lo, hi: hi}
	if f != nil {
		n.setFilter(f)
	}
	return n
}

// filter returns the node's current (immutable) Bloom filter.
func (n *node) filter() *bloom.Filter {
	if v := n.f.Load(); v != nil {
		return v.f
	}
	return nil
}

// setFilter publishes a new filter version for the node.
func (n *node) setFilter(f *bloom.Filter) { n.f.Store(&nodeFilter{f: f}) }

// setBits returns the version's set-bit count, counting it on first use.
func (v *nodeFilter) setBits() uint64 {
	if c := v.ones.Load(); c != 0 {
		return c - 1
	}
	c := v.f.SetBits()
	v.ones.Store(c + 1)
	return c
}

// estimate returns the §5.3 estimate Ŝ⁻¹ of the intersection of the
// node's current filter with q, whose set-bit count qOnes the caller
// counted once for the whole descent. With the node's count cached this
// is one AndCount pass, and the value is bit-identical to
// bloom.EstimateIntersectionOf(n.filter(), q). The node's set-bit count
// and the AND count are returned too, for callers that post-process the
// estimate from its inputs.
func (n *node) estimate(q *bloom.Filter, qOnes uint64) (est float64, ones, tand uint64) {
	v := n.f.Load()
	ones = v.setBits()
	tand = v.f.IntersectionSetBits(q)
	return bloom.EstimateIntersection(v.f.M(), v.f.K(), ones, qOnes, tand), ones, tand
}

// children loads both child pointers once; traversals load them into
// locals so one visit sees one consistent pair (a node with neither
// child is a leaf).
func (n *node) children() (left, right *node) { return n.left.Load(), n.right.Load() }

// maxSpineDepth bounds the number of top tree levels treated as the
// shared spine by pruned-tree growth; below it the namespace splits into
// up to 1<<maxSpineDepth independently locked subtrees.
const maxSpineDepth = 4

// growthStripe serializes writers of one subtree and counts its publishes.
type growthStripe struct {
	mu    sync.Mutex
	epoch atomic.Uint64
}

// Tree is a BloomSampleTree: a complete binary tree over the namespace
// with a Bloom filter per node, where each node's filter stores the
// elements of its range (full tree) or the occupied elements of its range
// (pruned tree). Build once, query many times (§5).
//
// Sample, SampleN, Reconstruct and EstimateSetSize are read-only on the
// tree and on the query filter, so any number of goroutines may call them
// concurrently — even sharing a single query Filter — as long as each
// goroutine owns its rand source and Ops accumulator.
//
// Pruned trees additionally support concurrent growth: Insert/InsertBatch
// publish copy-on-write filter swaps and privately built subtrees through
// the nodes' atomic pointers, so queries never wait on a writer — there is
// no tree-wide lock at all. Writers serialize per subtree (see
// growthStripe): the top spineDepth levels form a shared spine updated
// with per-node compare-and-swap, and each of the 1<<spineDepth subtrees
// below it is guarded by its own stripe mutex, so inserts into different
// subtrees proceed in parallel. A query racing a growth epoch sees the
// tree somewhere between the two versions (filters only ever gain bits,
// so previously visible elements never disappear); ids being inserted
// become sampleable when their epoch publishes.
type Tree struct {
	cfg    Config
	fam    hashfam.Family
	root   atomic.Pointer[node]
	pruned bool
	nodes  atomic.Uint64 // number of allocated (published) nodes

	// Growth machinery; stripes is nil on full trees, which are immutable
	// after construction.
	spineDepth int
	stripes    []growthStripe
}

// rootNode returns the current root (nil for an empty pruned tree).
func (t *Tree) rootNode() *node { return t.root.Load() }

// Config returns the configuration the tree was built with.
func (t *Tree) Config() Config { return t.cfg }

// Family returns the hash family shared by all node filters; query filters
// must be built with the same family (use NewQueryFilter).
func (t *Tree) Family() hashfam.Family { return t.fam }

// Namespace returns the namespace size M.
func (t *Tree) Namespace() uint64 { return t.cfg.Namespace }

// Depth returns the number of halvings between the root and the leaves.
func (t *Tree) Depth() int { return t.cfg.Depth }

// LeafRange returns the maximum number of namespace elements a leaf covers
// (M⊥ in the paper).
func (t *Tree) LeafRange() uint64 {
	r := t.cfg.Namespace
	for i := 0; i < t.cfg.Depth; i++ {
		r = (r + 1) / 2
	}
	return r
}

// Pruned reports whether the tree was built in pruned (occupancy-aware)
// mode.
func (t *Tree) Pruned() bool { return t.pruned }

// Nodes returns the number of allocated tree nodes. For a full tree this
// is 2^(Depth+1) − 1; a pruned tree allocates only nodes whose range is
// occupied.
func (t *Tree) Nodes() uint64 { return t.nodes.Load() }

// MemoryBytes returns the total size of all node Bloom filters in bytes —
// the quantity reported in the paper's memory tables (Tables 2–3, Fig. 14).
func (t *Tree) MemoryBytes() uint64 {
	perNode := (t.cfg.Bits + 63) / 64 * 8
	return t.nodes.Load() * perNode
}

// SubtreeEpochs returns a copy of the per-subtree growth epoch counters
// of a pruned tree (one per stripe, in namespace order; each counts the
// insert batches published into that subtree). Nil for full trees. The
// counters let callers observe that concurrent inserts into different
// subtrees really do proceed independently, and give cache layers a cheap
// per-region invalidation signal.
func (t *Tree) SubtreeEpochs() []uint64 {
	if t.stripes == nil {
		return nil
	}
	out := make([]uint64, len(t.stripes))
	for i := range t.stripes {
		out[i] = t.stripes[i].epoch.Load()
	}
	return out
}

// GrowthEpoch returns the total number of growth publishes across all
// subtrees (0 for full trees); it advances exactly when new ids become
// visible to queries.
func (t *Tree) GrowthEpoch() uint64 {
	var sum uint64
	for i := range t.stripes {
		sum += t.stripes[i].epoch.Load()
	}
	return sum
}

// NewQueryFilter returns an empty Bloom filter compatible with the tree
// (same m, k, family and seed), ready to receive a query set.
func (t *Tree) NewQueryFilter() *bloom.Filter { return bloom.New(t.fam) }

// checkQuery validates that q was built with the tree's parameters. It
// compares parameters directly (no probe filter is allocated), so it is
// free on the per-query hot path.
func (t *Tree) checkQuery(q *bloom.Filter) error {
	return q.MatchesFamily(t.fam)
}

// Ops counts the operations a sampling or reconstruction call performed;
// these are the metrics of the paper's Figures 3–4 and 8–10. Pass nil to
// skip counting.
type Ops struct {
	// Intersections counts Bloom-filter intersection-size estimations
	// (one per child filter examined at an internal node).
	Intersections uint64
	// Memberships counts membership queries fired at the query filter.
	Memberships uint64
	// NodesVisited counts tree nodes entered.
	NodesVisited uint64
	// LeavesScanned counts leaves whose whole range was brute-force
	// checked.
	LeavesScanned uint64
	// Backtracks counts the times the search exhausted one child and
	// re-descended into the sibling (§5.3's false-positive paths).
	Backtracks uint64
}

// Add accumulates o2 into o.
func (o *Ops) Add(o2 Ops) {
	o.Intersections += o2.Intersections
	o.Memberships += o2.Memberships
	o.NodesVisited += o2.NodesVisited
	o.LeavesScanned += o2.LeavesScanned
	o.Backtracks += o2.Backtracks
}

func (o *Ops) String() string {
	return fmt.Sprintf("intersections=%d memberships=%d nodes=%d leaves=%d backtracks=%d",
		o.Intersections, o.Memberships, o.NodesVisited, o.LeavesScanned, o.Backtracks)
}

// split returns the midpoint used to halve [lo, hi).
func split(lo, hi uint64) uint64 { return lo + (hi-lo+1)/2 }
