package core

import (
	"fmt"
	"math/rand"

	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// ErrNoSample is returned by Sample when the search exhausts the tree
// without finding any element answering positively — possible only when
// the query filter is empty or every branch taken was a false set overlap.
var ErrNoSample = fmt.Errorf("core: no sample found")

// Sample draws one element approximately uniformly at random from the set
// stored in the query Bloom filter q, following Algorithm 1 (BSTSample):
// descend from the root, at each internal node estimating the size of the
// intersection of each child filter with q (§5.3's Ŝ⁻¹ estimator),
// pruning children whose estimate falls below the empty threshold (§5.6),
// choosing among the rest with probability proportional to the estimates,
// and backtracking to the sibling when a branch turns out to be a false
// positive path. At a leaf, the whole leaf range is checked by membership
// queries and a uniform choice among the positives is returned.
//
// The returned element is a member of S ∪ S(B) — the stored set plus the
// filter's false positives — per the problem statement (§1). ops, if
// non-nil, accumulates operation counts.
func (t *Tree) Sample(q *bloom.Filter, rng *rand.Rand, ops *Ops) (uint64, error) {
	var buf [maxScratchK]uint64
	x, _, err := t.SampleScratch(q, rng, ops, buf[:0])
	return x, err
}

// SampleScratch is Sample with a caller-owned hash-position scratch
// buffer: the whole descent (including every leaf membership probe, via
// bloom.ContainsScratch) appends into scratch instead of allocating, and
// the possibly grown buffer is returned for the next call. A steady-state
// sampling loop that threads the returned buffer back in performs zero
// heap allocations per draw; DB.SampleMany's workers are built on it.
// Like Sample it is read-only on the tree and the query filter; the
// caller owns rng, ops and scratch.
func (t *Tree) SampleScratch(q *bloom.Filter, rng *rand.Rand, ops *Ops, scratch []uint64) (uint64, []uint64, error) {
	if err := t.checkQuery(q); err != nil {
		return 0, scratch, err
	}
	root := t.rootNode()
	if root == nil { // empty pruned tree
		return 0, scratch, ErrNoSample
	}
	x, ok, scratch := t.sampleNode(root, q, q.SetBits(), rng, ops, scratch)
	if !ok {
		return 0, scratch, ErrNoSample
	}
	return x, scratch, nil
}

// sampleNode implements one recursive step of BSTSample. Child pointers
// and filters are loaded once per visit, so a step races a concurrent
// growth publish only by seeing either the old or the new version. The
// query's set-bit count qOnes and the scratch buffer are threaded through
// the recursion; the buffer is returned grown.
func (t *Tree) sampleNode(n *node, q *bloom.Filter, qOnes uint64, rng *rand.Rand, ops *Ops, scratch []uint64) (uint64, bool, []uint64) {
	if ops != nil {
		ops.NodesVisited++
	}
	left, right := n.children()
	if left == nil && right == nil {
		return t.sampleLeaf(n, q, rng, ops, scratch)
	}

	lEst := t.childEstimate(left, q, qOnes, ops)
	rEst := t.childEstimate(right, q, qOnes, ops)
	thr := t.cfg.EmptyThreshold
	lOK, rOK := lEst >= thr, rEst >= thr

	// Both intersections estimated empty: we arrived here on a false
	// positive path; report NULL so the caller backtracks (Algorithm 1
	// lines 17–18).
	if !lOK && !rOK {
		return 0, false, scratch
	}

	// Otherwise choose a child with probability proportional to the
	// estimates and fall back to the sibling on failure — even a
	// sub-threshold sibling, exactly as Algorithm 1 lines 21–32 do. The
	// estimator is noisy at leaf scale (§5.6), so a sparse but live
	// branch can estimate to zero; reaching it through backtracking keeps
	// its elements sampleable.
	first, second := left, right
	if p := lEst / (lEst + rEst); rng.Float64() >= p {
		first, second = right, left
	}
	x, ok, scratch := t.sampleNode(first, q, qOnes, rng, ops, scratch)
	if ok {
		return x, true, scratch
	}
	if ops != nil {
		ops.Backtracks++
	}
	if second == nil { // pruned tree: missing sibling
		return 0, false, scratch
	}
	return t.sampleNode(second, q, qOnes, rng, ops, scratch)
}

// childEstimate returns the estimated intersection size of a child filter
// with the query, treating missing (pruned) children as empty.
func (t *Tree) childEstimate(child *node, q *bloom.Filter, qOnes uint64, ops *Ops) float64 {
	if child == nil {
		return 0
	}
	if ops != nil {
		ops.Intersections++
	}
	est, _, _ := child.estimate(q, qOnes)
	return est
}

// sampleLeaf brute-force checks the leaf's range against q and picks one
// positive uniformly at random (reservoir over the range, so no
// allocation beyond the caller's scratch buffer). The range is probed in
// blocks of leafProbeBatch: each block's keys are hashed with one
// PositionsMany call through the family's batched path and every k-group
// is then checked against the query's word-sliced bit vector, so the
// per-element cost is one inlined hash plus a short-circuiting probe.
// Both the key block and the position block are carved out of the
// threaded scratch buffer — stack arrays would escape through the
// interface call and break the zero-allocation contract of steady-state
// sampling loops.
func (t *Tree) sampleLeaf(n *node, q *bloom.Filter, rng *rand.Rand, ops *Ops, scratch []uint64) (uint64, bool, []uint64) {
	if ops != nil {
		ops.LeavesScanned++
		ops.Memberships += n.hi - n.lo
	}
	fam := q.Family()
	bits := q.Bits()
	k := fam.K()
	need := leafProbeBatch * (k + 1)
	if cap(scratch) < need {
		scratch = make([]uint64, 0, need)
	}
	buf := scratch[:need]
	xs := buf[:leafProbeBatch]
	var chosen uint64
	count := 0
	for lo := n.lo; lo < n.hi; lo += leafProbeBatch {
		m := int(min(uint64(leafProbeBatch), n.hi-lo))
		for i := 0; i < m; i++ {
			xs[i] = lo + uint64(i)
		}
		pos := hashfam.PositionsMany(fam, xs[:m], buf[leafProbeBatch:leafProbeBatch])
		for i := 0; i < m; i++ {
			if bits.TestAll(pos[i*k : (i+1)*k]) {
				count++
				if rng.Intn(count) == 0 {
					chosen = xs[i]
				}
			}
		}
	}
	return chosen, count > 0, buf[:0]
}

// leafProbeBatch is the number of leaf elements hashed per PositionsMany
// call during leaf scans; it bounds the scratch carve-out at
// leafProbeBatch*(k+1) words.
const leafProbeBatch = 64

// maxScratchK sizes the per-key hash-position scratch for descents and
// leaf scans; families with more hash functions than this just grow the
// buffer once per scan.
const maxScratchK = 16

// ScratchHint is the recommended initial capacity for the scratch buffer
// threaded through SampleScratch: one full leaf probe block (keys plus k
// positions per key) for every shipped hash family, so steady-state
// sampling loops never grow it.
const ScratchHint = leafProbeBatch * (maxScratchK + 1)

// positivesInLeaf collects every element of the leaf range answering
// positively, appending to out. It runs the same batched block probe as
// sampleLeaf, carving key and position blocks from scratch (allocating a
// fresh buffer when the one passed in is too small) and returning the
// possibly grown buffer for the next leaf.
func (t *Tree) positivesInLeaf(n *node, q *bloom.Filter, ops *Ops, out, scratch []uint64) ([]uint64, []uint64) {
	if ops != nil {
		ops.LeavesScanned++
		ops.Memberships += n.hi - n.lo
	}
	fam := q.Family()
	bits := q.Bits()
	k := fam.K()
	need := leafProbeBatch * (k + 1)
	if cap(scratch) < need {
		scratch = make([]uint64, 0, need)
	}
	buf := scratch[:need]
	xs := buf[:leafProbeBatch]
	for lo := n.lo; lo < n.hi; lo += leafProbeBatch {
		m := int(min(uint64(leafProbeBatch), n.hi-lo))
		for i := 0; i < m; i++ {
			xs[i] = lo + uint64(i)
		}
		pos := hashfam.PositionsMany(fam, xs[:m], buf[leafProbeBatch:leafProbeBatch])
		for i := 0; i < m; i++ {
			if bits.TestAll(pos[i*k : (i+1)*k]) {
				out = append(out, xs[i])
			}
		}
	}
	return out, buf[:0]
}
