package tmesh_test

import (
	"bytes"
	"testing"

	"tmesh/internal/chaos"
	"tmesh/internal/ident"
	"tmesh/internal/obs"
	"tmesh/internal/obs/trace"
	"tmesh/internal/tmesh"
)

// TestTracedMulticast records a full server multicast and checks that
// the flight record reconstructs it: one non-dropped hop per user at the
// level the result reports, the trace's own checks green, and Theorem 1
// green through chaos.TraceEvidence. It is an external test so that it
// can import chaos, which imports tmesh.
func TestTracedMulticast(t *testing.T) {
	dir, recs := tmesh.BuildGroup(t, 4, 40, 11)
	var buf bytes.Buffer
	rec := trace.NewRecorder(11, obs.NewSink(&buf))
	tr := rec.Begin("data", 1, 0, "", nil)
	for _, r := range recs {
		tr.Member(r.ID)
	}
	res, err := tmesh.Multicast(tmesh.Config[int]{Dir: dir, Trace: tr}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]ident.ID, 0, len(recs))
	for _, r := range recs {
		ids = append(ids, r.ID)
	}
	tr.End(ids, true)
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}

	records, err := trace.ParseRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hops := 0
	for _, r := range records {
		if r.Kind != "hop" {
			continue
		}
		hops++
		if r.Dropped {
			t.Errorf("span %d dropped in a lossless session", r.Span)
		}
		to, err := ident.ParsePrefix(r.To)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Users[to.Key()]
		if st == nil || st.Level != r.Level {
			t.Errorf("hop to %s at level %d disagrees with result %+v", r.To, r.Level, st)
		}
	}
	if hops != len(recs) {
		t.Fatalf("%d hop records for %d users (Theorem 1 wants one each)", hops, len(recs))
	}

	groups := trace.Groups(records)
	if len(groups) != 1 {
		t.Fatalf("%d traces, want 1", len(groups))
	}
	for _, c := range groups[0].Audit().Checks {
		for _, v := range c.Violations {
			t.Errorf("%s: %s", c.Name, v)
		}
	}
	ev, err := chaos.TraceEvidence(groups[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Copies) != len(recs) {
		t.Errorf("evidence counts copies for %d members, want %d", len(ev.Copies), len(recs))
	}
	verdicts, _ := chaos.Audit(ev, nil)
	for _, v := range verdicts {
		if line := v.Line(); line != "" {
			t.Error(line)
		}
	}
}
