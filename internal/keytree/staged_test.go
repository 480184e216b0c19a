package keytree

import (
	"bytes"
	"testing"

	"tmesh/internal/ident"
)

func stagedIDs(t *testing.T, params ident.Params, n int) []ident.ID {
	t.Helper()
	ids := make([]ident.ID, 0, n)
	for i := 0; i < n; i++ {
		id, err := ident.FromInt(params, i*7%params.Capacity())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestRegenerateParallelByteIdentical is the keytree half of the
// pipeline determinism contract: Mark+Regenerate must produce
// byte-identical messages at parallelism 1 and N, across multiple churn
// intervals.
func TestRegenerateParallelByteIdentical(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 8}
	seed := []byte("staged-det")
	seq, err := New(params, seed, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(params, seed, Opts{})
	if err != nil {
		t.Fatal(err)
	}

	ids := stagedIDs(t, params, 60)
	intervals := [][2][]ident.ID{
		{ids[:40], nil},
		{ids[40:50], ids[:8]},
		{ids[50:], ids[10:20]},
	}
	for i, batch := range intervals {
		joins, leaves := batch[0], batch[1]
		seqPlan, err := seq.Mark(joins, leaves)
		if err != nil {
			t.Fatal(err)
		}
		seqMsg, err := seq.Regenerate(seqPlan, 1)
		if err != nil {
			t.Fatal(err)
		}
		parPlan, err := par.Mark(joins, leaves)
		if err != nil {
			t.Fatal(err)
		}
		parMsg, err := par.Regenerate(parPlan, 7)
		if err != nil {
			t.Fatal(err)
		}
		if seqMsg.Interval != parMsg.Interval {
			t.Fatalf("interval %d: sequence numbers differ", i)
		}
		if len(seqMsg.Encryptions) != len(parMsg.Encryptions) {
			t.Fatalf("interval %d: %d vs %d encryptions", i, len(seqMsg.Encryptions), len(parMsg.Encryptions))
		}
		for j := range seqMsg.Encryptions {
			a, b := seqMsg.Encryptions[j], parMsg.Encryptions[j]
			if a.ID != b.ID || a.KeyID != b.KeyID || a.KeyVersion != b.KeyVersion ||
				!bytes.Equal(a.Ciphertext, b.Ciphertext) {
				t.Fatalf("interval %d encryption %d: not byte-identical", i, j)
			}
		}
		// The trees themselves stay in lockstep.
		sk, _ := seq.GroupKey()
		pk, _ := par.GroupKey()
		if !sk.Equal(pk) {
			t.Fatalf("interval %d: group keys diverged", i)
		}
	}
	if err := seq.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	if err := par.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchEqualsStagedPipeline pins Batch as exactly Mark followed by
// a sequential Regenerate.
func TestBatchEqualsStagedPipeline(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 8}
	a, _ := New(params, []byte("s"), Opts{})
	b, _ := New(params, []byte("s"), Opts{})
	ids := stagedIDs(t, params, 20)
	am, err := a.Batch(ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := b.Mark(ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := b.Regenerate(plan, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(am.Encryptions) != len(bm.Encryptions) {
		t.Fatalf("%d vs %d encryptions", len(am.Encryptions), len(bm.Encryptions))
	}
	for i := range am.Encryptions {
		if !bytes.Equal(am.Encryptions[i].Ciphertext, bm.Encryptions[i].Ciphertext) {
			t.Fatalf("encryption %d differs", i)
		}
	}
}

// TestBatchPlanLifecycle rejects double-spend and stale plans.
func TestBatchPlanLifecycle(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 8}
	tr, _ := New(params, []byte("s"), Opts{})
	ids := stagedIDs(t, params, 6)

	plan, err := tr.Mark(ids[:3], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Regenerate(plan, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Regenerate(plan, 1); err == nil {
		t.Error("spent plan must be rejected")
	}
	if _, err := tr.Regenerate(nil, 1); err == nil {
		t.Error("nil plan must be rejected")
	}

	stale, err := tr.Mark(ids[3:4], nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := tr.Mark(ids[4:5], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Regenerate(stale, 1); err == nil {
		t.Error("stale plan (superseded by a newer Mark) must be rejected")
	}
	if _, err := tr.Regenerate(fresh, 1); err != nil {
		t.Fatalf("current plan rejected: %v", err)
	}
}
