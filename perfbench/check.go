package main

import (
	"fmt"
	"math"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashfam"
)

// checker verifies replies against the ground-truth shadow model. The
// shadow knows each set's exact contents at the point a read was served
// (requests to one dynamic key are served in generation order) and
// rebuilds that version's Bloom filter with the database's hash family,
// so it can tell a legitimate false positive from a wrong id.
//
// Rules:
//   - a reply must echo the requested key (HTTP echoes keys; wire does not);
//   - every sampled or reconstructed id must be a positive of the set's
//     filter: a member, or one of the filter's false positives;
//   - a sample returns at most one id (every sample request asks for one);
//   - where the tree cannot change during the run (ref non-nil), a
//     reconstruction must equal the reference reconstruction of the
//     same filter on an identical tree with the served rule
//     (core.PruneByEstimate): a member missing from the reply is a
//     dropped member; this check runs on the first maxRefs distinct set
//     versions in request order;
//   - an intersection estimate must equal the estimator's value on the
//     shadow filters.
type checker struct {
	fam     hashfam.Family
	ref     *core.Tree
	maxRefs int

	filters map[*idSet]*bloom.Filter
	refs    map[*idSet][]uint64

	violations int
	examples   []string
	q          quality
}

// quality accumulates the end-to-end quality readings.
type quality struct {
	sampleRequested, sampleReturned, sampleMembers int
	reconTruth, reconReturned, reconMembers        int
}

func newChecker(fam hashfam.Family, ref *core.Tree) *checker {
	return &checker{fam: fam, ref: ref, maxRefs: 96,
		filters: map[*idSet]*bloom.Filter{}, refs: map[*idSet][]uint64{}}
}

func (c *checker) filter(s *idSet) *bloom.Filter {
	f, ok := c.filters[s]
	if !ok {
		f = bloom.NewFromElements(c.fam, s.ids)
		c.filters[s] = f
	}
	return f
}

func (c *checker) flag(o *op, format string, args ...any) {
	c.violations++
	if len(c.examples) < 8 {
		c.examples = append(c.examples, fmt.Sprintf("request %d (%s %s): ", o.idx, opNames[o.kind], o.key)+fmt.Sprintf(format, args...))
	}
}

// check verifies one successful reply and accumulates quality.
func (c *checker) check(o *op, r reply) {
	if r.key != o.key || r.keyB != o.keyB {
		c.flag(o, "wrong-key reply %q %q", r.key, r.keyB)
		return
	}
	switch {
	case o.kind.isSample():
		c.q.sampleRequested++
		c.q.sampleReturned += len(r.ids)
		if len(r.ids) > 1 {
			c.flag(o, "%d ids for n=1", len(r.ids))
		}
		c.q.sampleMembers += c.positives(o, r.ids)
	case o.kind.isReconstruct():
		c.q.reconTruth += len(o.truth.ids)
		c.q.reconReturned += len(r.ids)
		c.q.reconMembers += c.positives(o, r.ids)
		c.compareReference(o, r.ids)
	case o.kind == opIntersection:
		want := bloom.EstimateIntersectionOf(c.filter(o.truth), c.filter(o.truthB))
		if math.Abs(r.est-want) > 1e-9*math.Max(1, math.Abs(want)) {
			c.flag(o, "intersection estimate %v, want %v", r.est, want)
		}
	}
}

// positives flags ids that are not filter positives and returns the
// number of true members among ids.
func (c *checker) positives(o *op, ids []uint64) int {
	f := c.filter(o.truth)
	members := 0
	for _, id := range ids {
		switch {
		case o.truth.has(id):
			members++
		case !f.Contains(id):
			c.flag(o, "id %d is neither a member nor a false positive (never added, or removed)", id)
		}
	}
	return members
}

// compareReference checks a reconstruction against the reference.
func (c *checker) compareReference(o *op, ids []uint64) {
	if c.ref == nil {
		return
	}
	want, ok := c.refs[o.truth]
	if !ok {
		if len(c.refs) >= c.maxRefs {
			return
		}
		var err error
		if want, err = c.ref.Reconstruct(c.filter(o.truth), core.PruneByEstimate, nil); err != nil {
			c.flag(o, "reference reconstruction: %v", err)
			return
		}
		c.refs[o.truth] = want
	}
	got := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			if o.truth.has(id) {
				c.flag(o, "dropped member %d", id)
			} else {
				c.flag(o, "dropped false positive %d", id)
			}
			return
		}
	}
	if len(ids) != len(want) {
		c.flag(o, "%d ids, reference has %d", len(ids), len(want))
	}
}
