package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/bloom"
)

// UniformSampler draws exactly uniform samples from a query Bloom filter
// through the BloomSampleTree by rejection: the tree descent is used as a
// proposal distribution whose probability is tracked exactly, and a sample
// found at a leaf with ℓ positives reached with path probability p is
// accepted with probability ℓ/(n̂·p·C).
//
// Why this exists: BSTSample's leaf-choice probabilities are products of
// noisy intersection estimates (§5.3), and Proposition 5.2's near-
// uniformity needs ε(m) = √(2nk·(log m + log log m + log n)/m) → 0 —
// which does not hold at the paper's own filter sizes (ε ≈ 1 there). The
// rejection step cancels the proposal entirely: accepted samples are
// uniform over the filter's positives regardless of estimator noise,
// because P(x) = p·(1/ℓ)·[ℓ/(n̂·p·C)] = 1/(n̂·C) for every reachable x.
// An acceptance probability that would exceed 1 (an under-proposed leaf)
// is never returned: the attempt is discarded and C is doubled, so after
// a short self-calibration every positive has acceptance probability
// exactly ℓ/(n̂·p·C) < 1 and the output distribution is exactly uniform.
// Clamp events are counted in Stats.Clamped.
//
// The proposal mixes the intersection estimate with a uniform-over-
// namespace component (child weight = ê + β·n̂·rangeFraction), so every
// leaf keeps a path probability within a small factor of its ideal share
// even where the estimator is pure noise, and the tracked probability is
// exact; there is no backtracking — a failed leaf is a rejection, and the
// sampler retries from the root.
//
// A UniformSampler is safe for concurrent use: the query filter, the
// cardinality estimate and the self-calibration (safety factor, attempt
// bound, rejection statistics) all live in atomics, so any number of
// goroutines can share one sampler — each still owns its rand source and
// Ops accumulator. Calibration updates are monotone (the safety factor
// and the cardinality estimate only ever rise via compare-and-swap max),
// which keeps racing recalibrations from regressing the learned headroom.
// Retarget rebinds the sampler to a newer copy-on-write version of its
// filter without discarding that calibration.
type UniformSampler struct {
	t *Tree
	q atomic.Pointer[bloom.Filter]
	// nHatBits and safetyBits hold float64 bits; both are raised
	// monotonically with CAS-max (atomicMaxFloat). safety is C in the
	// acceptance rule: larger values reduce clamping (better uniformity
	// in the extreme tails) but cost proportionally more attempts.
	nHatBits    atomic.Uint64
	safetyBits  atomic.Uint64
	maxAttempts atomic.Int64
	// uniformMix is β, the weight of the uniform-over-namespace component
	// in the proposal; fixed at creation.
	uniformMix float64

	attempts, accepted, clamped, retargets atomic.Uint64
}

// UniformStats reports the sampler's rejection behaviour.
type UniformStats struct {
	// Attempts is the total number of root-to-leaf descents.
	Attempts uint64
	// Accepted is the number of samples returned.
	Accepted uint64
	// Clamped counts acceptances whose probability was capped at 1
	// (slight local over-sampling; the safety factor doubles on each).
	Clamped uint64
	// Retargets counts Retarget calls that actually swapped the filter.
	Retargets uint64
}

// atomicMaxFloat raises the float64 stored in bits to at least v.
func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// NewUniformSampler prepares a uniform sampler for one query filter. The
// filter's estimated cardinality is computed once and reused; Retarget
// the sampler if the filter is replaced by a newer version.
func (t *Tree) NewUniformSampler(q *bloom.Filter) (*UniformSampler, error) {
	if err := t.checkQuery(q); err != nil {
		return nil, err
	}
	nHat := t.clampEstimate(q.EstimateCardinality())
	// For sets much smaller than the leaf count the proposal cannot know
	// which near-empty leaf hides two elements instead of one, so the
	// acceptance headroom must scale with leaves/n̂; clamp-doubling
	// handles whatever this initial guess still misses.
	leaves := float64(uint64(1) << t.cfg.Depth)
	c := 8.0
	if scaled := 4 * leaves / nHat; scaled > c {
		c = scaled
	}
	s := &UniformSampler{t: t, uniformMix: 2}
	s.q.Store(q)
	s.nHatBits.Store(math.Float64bits(nHat))
	s.safetyBits.Store(math.Float64bits(c))
	s.maxAttempts.Store(int64(64 * c))
	return s, nil
}

// clampEstimate bounds a cardinality estimate to [1, Namespace].
func (t *Tree) clampEstimate(nHat float64) float64 {
	if math.IsInf(nHat, 1) || nHat > float64(t.cfg.Namespace) {
		nHat = float64(t.cfg.Namespace)
	}
	if nHat < 1 {
		nHat = 1
	}
	return nHat
}

// Retarget rebinds the sampler to a newer version of its query filter —
// typically the copy-on-write successor published by a writer — while
// keeping the learned safety calibration. The cardinality estimate is
// recalibrated by atomic max: it only ever rises, so concurrent
// retargets (or retargets racing draws) cannot regress the acceptance
// rule below a level already proven necessary. Draws racing a Retarget
// use either filter version; both are valid snapshots of the set.
func (s *UniformSampler) Retarget(q *bloom.Filter) error {
	if err := s.t.checkQuery(q); err != nil {
		return err
	}
	if s.q.Swap(q) == q {
		return nil
	}
	atomicMaxFloat(&s.nHatBits, s.t.clampEstimate(q.EstimateCardinality()))
	s.retargets.Add(1)
	return nil
}

// Filter returns the query filter the sampler currently draws from.
func (s *UniformSampler) Filter() *bloom.Filter { return s.q.Load() }

// SafetyFactor returns the current acceptance headroom C.
func (s *UniformSampler) SafetyFactor() float64 {
	return math.Float64frombits(s.safetyBits.Load())
}

// SetMaxAttempts bounds the rejection loop (default 64·C, doubled on each
// clamp event).
func (s *UniformSampler) SetMaxAttempts(n int) { s.maxAttempts.Store(int64(n)) }

// MaxAttempts returns the current rejection-loop bound.
func (s *UniformSampler) MaxAttempts() int { return int(s.maxAttempts.Load()) }

// Stats returns cumulative rejection statistics.
func (s *UniformSampler) Stats() UniformStats {
	return UniformStats{
		Attempts:  s.attempts.Load(),
		Accepted:  s.accepted.Load(),
		Clamped:   s.clamped.Load(),
		Retargets: s.retargets.Load(),
	}
}

// Sample returns one uniform sample from the set stored in the query
// filter (including its false positives). It returns ErrNoSample when the
// rejection loop exhausts MaxAttempts — in practice only for (nearly)
// empty query filters.
func (s *UniformSampler) Sample(rng *rand.Rand, ops *Ops) (uint64, error) {
	if s.t.rootNode() == nil {
		return 0, ErrNoSample
	}
	for attempt := int64(0); attempt < s.maxAttempts.Load(); attempt++ {
		s.attempts.Add(1)
		x, ok := s.descend(rng, ops)
		if ok {
			s.accepted.Add(1)
			return x, nil
		}
	}
	return 0, ErrNoSample
}

// SampleN draws r uniform samples (with replacement) by repeated Sample.
func (s *UniformSampler) SampleN(r int, rng *rand.Rand, ops *Ops) ([]uint64, error) {
	out := make([]uint64, 0, r)
	for i := 0; i < r; i++ {
		x, err := s.Sample(rng, ops)
		if err == ErrNoSample {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, x)
	}
	return out, nil
}

// descend performs one proposal walk and the acceptance test. The query
// filter, estimate and safety factor are loaded, and the query's set bits
// counted, once per attempt so the walk is internally consistent even
// while another goroutine retargets or recalibrates.
func (s *UniformSampler) descend(rng *rand.Rand, ops *Ops) (uint64, bool) {
	q := s.q.Load()
	qOnes := q.SetBits()
	nHat := math.Float64frombits(s.nHatBits.Load())
	safety := math.Float64frombits(s.safetyBits.Load())
	n := s.t.rootNode()
	pathProb := 1.0
	for {
		left, right := n.children()
		if left == nil && right == nil {
			break
		}
		if ops != nil {
			ops.NodesVisited++
		}
		wl := s.childWeight(left, q, qOnes, nHat, ops)
		wr := s.childWeight(right, q, qOnes, nHat, ops)
		if wl == 0 && wr == 0 {
			return 0, false // pruned-tree dead end (both children missing)
		}
		pl := wl / (wl + wr)
		if rng.Float64() < pl {
			n, pathProb = left, pathProb*pl
		} else {
			n, pathProb = right, pathProb*(1-pl)
		}
	}
	if ops != nil {
		ops.NodesVisited++
	}

	// Reservoir over the leaf's positives, counting them exactly.
	var chosen uint64
	count := 0
	if ops != nil {
		ops.LeavesScanned++
		ops.Memberships += n.hi - n.lo
	}
	var buf [maxScratchK]uint64
	scratch := buf[:0]
	for x := n.lo; x < n.hi; x++ {
		var hit bool
		hit, scratch = q.ContainsScratch(x, scratch)
		if hit {
			count++
			if rng.Intn(count) == 0 {
				chosen = x
			}
		}
	}
	if count == 0 {
		return 0, false
	}
	alpha := float64(count) / (nHat * pathProb * safety)
	if alpha >= 1 {
		// Under-proposed leaf: returning now would bias the output, so
		// discard the attempt and widen the headroom for all future
		// acceptances (self-calibration; exact once clamps stop). The
		// doubling is a CAS-max so racing clamps compose instead of
		// overwriting each other.
		s.clamped.Add(1)
		atomicMaxFloat(&s.safetyBits, safety*2)
		for {
			old := s.maxAttempts.Load()
			if s.maxAttempts.CompareAndSwap(old, old*2) {
				break
			}
		}
		return 0, false
	}
	return chosen, rng.Float64() < alpha
}

// childWeight is the proposal weight of a child: the estimated
// intersection size plus the uniform-mixture share β·n̂·(range/M), or 0
// for a missing child. qOnes is the query's set-bit count.
func (s *UniformSampler) childWeight(child *node, q *bloom.Filter, qOnes uint64, nHat float64, ops *Ops) float64 {
	if child == nil {
		return 0
	}
	if ops != nil {
		ops.Intersections++
	}
	est, t1, tand := child.estimate(q, qOnes)
	if est < 0 || math.IsNaN(est) {
		est = 0
	}
	if math.IsInf(est, 1) || est > nHat {
		est = nHat
	}
	// Shrink the estimate by one standard deviation of its chance-level
	// noise: the AND bit count fluctuates by ~√(t1·t2/m) even for
	// disjoint sets, and at mid-tree levels that noise (converted to
	// elements) exceeds the true count. Without shrinkage the proposal
	// chases noise and the acceptance probabilities spread over orders of
	// magnitude (heavy clamping).
	if est > 0 && est < nHat {
		m := q.M()
		sigmaBits := 1.5 * math.Sqrt(float64(t1)*float64(qOnes)/float64(m))
		lo := tand - uint64(sigmaBits)
		if sigmaBits >= float64(tand) {
			lo = 0
		}
		estLo := bloom.EstimateIntersection(m, q.K(), t1, qOnes, lo)
		if math.IsNaN(estLo) || math.IsInf(estLo, 0) || estLo < 0 {
			estLo = 0
		}
		est = estLo
	}
	frac := float64(child.hi-child.lo) / float64(s.t.cfg.Namespace)
	return est + s.uniformMix*nHat*frac
}

// String summarizes the sampler's configuration and statistics.
func (s *UniformSampler) String() string {
	return fmt.Sprintf("UniformSampler(n̂=%.1f C=%.1f β=%.2f attempts=%d accepted=%d clamped=%d retargets=%d)",
		math.Float64frombits(s.nHatBits.Load()), s.SafetyFactor(), s.uniformMix,
		s.attempts.Load(), s.accepted.Load(), s.clamped.Load(), s.retargets.Load())
}
