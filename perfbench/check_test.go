package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/setdb"
)

// TestCheckerFlagsPlantedFaults plants one fault of each kind the
// checker must catch into otherwise correct replies.
func TestCheckerFlagsPlantedFaults(t *testing.T) {
	opts, err := dbOptions()
	if err != nil {
		t.Fatal(err)
	}
	db, err := setdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := hashfam.New(hashfam.DefaultKind, opts.Bits, opts.K, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := genSet(setRNG(1, 0, 0), namespace, 400, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := genSet(setRNG(1, 2, 0), uint64(len(plain.ids)), 40, false, plain.ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyBatch([]setdb.Write{{Key: "s", IDs: plain.ids}, {Key: "d", IDs: dyn.ids, Dynamic: true}}); err != nil {
		t.Fatal(err)
	}
	removed := dyn.ids[:4]
	afterRemove := without(dyn, removed)

	newCheck := func() *checker { return newChecker(fam, db.Tree()) }
	ref, err := db.Tree().Reconstruct(newCheck().filter(plain), core.PruneByEstimate, nil)
	if err != nil {
		t.Fatal(err)
	}
	member := uint64(0)
	for _, id := range ref {
		if plain.has(id) {
			member = id
			break
		}
	}
	if !plain.has(member) {
		t.Fatal("the reference reconstruction holds no member")
	}
	nonMember := uint64(0)
	for f := newCheck().filter(plain); plain.has(nonMember) || f.Contains(nonMember); nonMember++ {
	}
	var dropped []uint64
	for _, id := range ref {
		if id != member {
			dropped = append(dropped, id)
		}
	}

	sample := &op{kind: opSample1, key: "s", dyn: -1, truth: plain}
	dynSample := &op{kind: opDynSample, key: "d", dyn: 0, truth: afterRemove}
	recon := &op{kind: opReconstruct, key: "s", dyn: -1, truth: plain}
	for _, tc := range []struct {
		name string
		o    *op
		r    reply
		want string // "" for a correct reply
	}{
		{"correct sample", sample, reply{key: "s", ids: plain.ids[:1]}, ""},
		{"correct reconstruction", recon, reply{key: "s", ids: ref}, ""},
		{"planted non-member", sample, reply{key: "s", ids: []uint64{nonMember}}, "neither a member nor a false positive"},
		{"planted removed id", dynSample, reply{key: "d", ids: removed[:1]}, "neither a member nor a false positive"},
		{"dropped member", recon, reply{key: "s", ids: dropped}, "dropped member"},
		{"wrong-key reply", sample, reply{key: "d", ids: plain.ids[:1]}, "wrong-key reply"},
	} {
		c := newCheck()
		c.check(tc.o, tc.r)
		switch {
		case tc.want == "" && c.violations != 0:
			t.Errorf("%s: flagged %v", tc.name, c.examples)
		case tc.want != "" && (c.violations == 0 || !strings.Contains(strings.Join(c.examples, "\n"), tc.want)):
			t.Errorf("%s: want a %q violation, got %v", tc.name, tc.want, c.examples)
		}
	}
}

// TestScheduleDeterministic checks that a seed fixes the population and
// request schedule, and that another seed changes them.
func TestScheduleDeterministic(t *testing.T) {
	sp, _ := specByName("churn-http")
	digestOf := func(seed int64) string {
		pop, err := generate(sp, seed)
		if err != nil {
			t.Fatal(err)
		}
		g := newGenerator(sp, pop, seed)
		ops := make([]*op, 2000)
		for i := range ops {
			ops[i] = g.gen()
		}
		return digest(pop, ops)
	}
	if a, b := digestOf(7), digestOf(7); a != b {
		t.Fatalf("same seed, digests %s and %s", a, b)
	}
	if a, b := digestOf(7), digestOf(8); a == b {
		t.Fatalf("seeds 7 and 8 share digest %s", a)
	}
}
