package main

import (
	"fmt"
	"os"
	"testing"
)

// TestMain also serves as the benchmark's server process: a benchmark
// run under test starts this binary with -serve.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smallBench sets up a two-second run of a reduced copy of a workload:
// at most 60 plain sets and 40 dynamic ones.
func smallBench(t *testing.T, name string) *bench {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.plainSets = min(sp.plainSets, 60)
	sp.dynKeys = 40
	b, err := newBench(sp, 5, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.close)
	return b
}

// plantWrongShadow makes the shadow of every read in rounds [from, to)
// hold other ids than the server does (each id shifted by one), so
// replies to those reads break the shadow model.
func plantWrongShadow(b *bench, from, to int) {
	first := b.rounds[from][0].from
	last := b.rounds[to-1][len(b.rounds[to-1])-1]
	for i := first; i < last.from+last.n; i++ {
		o := b.run.opAt(i)
		if !o.kind.isSample() && !o.kind.isReconstruct() {
			continue
		}
		ids := make([]uint64, len(o.truth.ids))
		for j, id := range o.truth.ids {
			ids[j] = id + 1
		}
		o.truth = &idSet{ids: ids, clustered: o.truth.clustered}
	}
}

// TestTracedVerdict checks that a traced run reports the checker's
// verdict: correct as served, and not correct when the replies to the
// traced rounds' reads break the shadow model.
func TestTracedVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, tc := range []struct {
		workload string
		plant    bool
	}{
		{"churn-http", false},
		{"churn-http", true},
		{"reconstruct-http", true},
	} {
		b := smallBench(t, tc.workload)
		if tc.plant {
			plantWrongShadow(b, rounds/2, rounds)
		}
		res, err := b.traced(t.TempDir() + "/spans.jsonl")
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if res.Correct == tc.plant {
			t.Errorf("%s, planted %v: correct = %v", tc.workload, tc.plant, res.Correct)
		}
		if len(res.Metrics) == 0 || res.Attempted == 0 {
			t.Errorf("%s: empty result %+v", tc.workload, res)
		}
	}
}

// TestFailedWriteSkipsKey plants a remove the server must refuse and
// checks that the run counts one failure and stays correct: the key's
// later requests in that round are not sent, so they cannot be checked
// against a shadow version the server never reached.
func TestFailedWriteSkipsKey(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	b := smallBench(t, "churn-http")
	var planted *op
	for i := b.rounds[0][0].from; planted == nil; i++ {
		if o := b.run.opAt(i); o.kind == opRemove {
			planted = o
		}
	}
	// An id of an unoccupied leaf: a member of no set.
	planted.ids = []uint64{uint64(b.pop.spare[0]) * 1024}
	res, err := b.measured()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 1 {
		t.Errorf("correct = %v, failed = %d; want true, 1", res.Correct, res.Failed)
	}
}
