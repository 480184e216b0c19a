package trace_test

import (
	"strings"
	"testing"

	"tmesh/internal/chaos"
	"tmesh/internal/obs/trace"
)

// The path theorems are chaos's auditors, not checks of a trace's own
// audit. These tests run recorded traces through chaos.TraceEvidence and
// chaos.Audit, as traceaudit does, and pin the counts the trace's own
// audit keeps alongside.

// auditTheorems audits recs, a single trace, and requires each auditor
// named in fails to report a violation containing its fragment, every
// other auditor to pass, and the trace's own checks to pass. It returns
// the verdicts, the total violation count across both, and the trace's
// own audit.
func auditTheorems(t *testing.T, recs []trace.Record, fails map[string]string) ([]chaos.Verdict, int, *trace.TraceAudit) {
	t.Helper()
	groups := trace.Groups(recs)
	if len(groups) != 1 {
		t.Fatalf("%d traces, want 1", len(groups))
	}
	a := groups[0].Audit()
	total := 0
	for _, c := range a.Checks {
		total += len(c.Violations)
		for _, v := range c.Violations {
			t.Errorf("trace check %s: %s", c.Name, v)
		}
	}
	ev, err := chaos.TraceEvidence(groups[0])
	if err != nil {
		t.Fatal(err)
	}
	verdicts, _ := chaos.Audit(ev, nil)
	for _, v := range verdicts {
		total += len(v.Violations)
		want, shouldFail := fails[v.Name]
		switch {
		case shouldFail && !strings.Contains(v.Line(), want):
			t.Errorf("auditor %s reported %q, want a violation mentioning %q", v.Name, v.Line(), want)
		case !shouldFail && v.Line() != "":
			t.Errorf("auditor %s should pass, reported %q", v.Name, v.Line())
		}
	}
	return verdicts, total, a
}

// dropLast loses [1,1]'s multicast copy in a faulty run.
func dropLast(r []trace.Record) []trace.Record {
	r[8].Dropped, r[8].RecvNS = true, -1
	r[9].FaultFree = false
	return r
}

// TestAuditExactlyOneCopy: Theorem 1 — a second copy, or a needing
// survivor that got none in a fault-free run, is a delivery violation.
func TestAuditExactlyOneCopy(t *testing.T) {
	recs := trace.BaseRecords()
	dup := recs[8] // a second copy to [1,1]
	dup.Span, dup.Parent, dup.From = 5, 1, "[0,0]"
	dup.SentNS, dup.RecvNS = 21, 40
	_, total, a := auditTheorems(t, append(recs, dup),
		map[string]string{"delivery": "[1,1] received 2 copies"})
	if total != 1 {
		t.Errorf("%d violations, want 1", total)
	}
	if a.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", a.Duplicates)
	}

	recs = trace.BaseRecords()
	auditTheorems(t, append(recs[:8], recs[9]), map[string]string{ // no hop to [1,1]
		"delivery": "[1,1] missed the multicast",
		"coverage": "[1,1] never got its key slice",
		"ladder":   "[1,1] was owed keys but no rung delivered them",
	})
}

// TestAuditForwardMinimality: Theorem 2 — a per-encryption hop carries
// exactly the encryptions its subtree needs, and no hop goes to a
// subtree that needs none.
func TestAuditForwardMinimality(t *testing.T) {
	recs := trace.BaseRecords()
	recs[6].Encs, recs[6].Items = 3, []string{"[]", "[0]", "[0,1]"} // over-forwarding into subtree [1]
	auditTheorems(t, recs, map[string]string{
		"delivery": "received 3 encryptions, the message has 1 for subtree [1]"})

	recs = trace.BaseRecords()
	recs[6].Items = []string{"[0]"} // right count, wrong encryption
	auditTheorems(t, recs, map[string]string{
		"delivery": "lacks encryption [] that subtree [1] needs"})

	// The group key [] relates to every subtree, so shrink the message
	// to subtree-[0] keys only: span 2's hop into [1] is then pure waste.
	recs = trace.BaseRecords()
	recs[0].MsgEncs = []string{"[0]", "[0,1]"}
	auditTheorems(t, recs, map[string]string{
		"delivery": "no encryption of the message is for subtree [1]"})
}

// TestAuditCoverageViaLadder: Lemma 3 across the ladder — a lost copy
// that a unicast rung delivers passes; with no rung it fails.
func TestAuditCoverageViaLadder(t *testing.T) {
	recs := append(dropLast(trace.BaseRecords()), trace.Record{Kind: "unicast", Trace: "rekey-test",
		User: "[1,1]", Attempt: 1, Units: 1, SentNS: 100, RecvNS: 120})
	_, _, a := auditTheorems(t, recs, nil)
	if a.DroppedHops != 1 || a.Unicasts != 1 {
		t.Errorf("DroppedHops=%d Unicasts=%d, want 1/1", a.DroppedHops, a.Unicasts)
	}

	auditTheorems(t, dropLast(trace.BaseRecords()), map[string]string{
		"coverage": "[1,1] never got its key slice",
		"ladder":   "[1,1] was owed keys but no rung delivered them",
	})
}

// TestAuditDataTrace: a data trace owes every survivor a copy — here
// the sender, whose missed copy is the only violation — and gives the
// key-delivery auditors nothing to read.
func TestAuditDataTrace(t *testing.T) {
	const id = "data-test"
	recs := []trace.Record{
		{Kind: "trace", Trace: id, Label: "data", Seq: 1, Interval: 2, SentNS: 5},
		{Kind: "member", Trace: id, User: "[0,0]"},
		{Kind: "member", Trace: id, User: "[1,0]"},
		{Kind: "hop", Trace: id, Span: 1, From: "[0,0]", FromLevel: 0, To: "[1,0]",
			Level: 1, Subtree: "[1]", EncsIn: 1, Encs: 1, SentNS: 5, RecvNS: 9},
		{Kind: "end", Trace: id, Survivors: []string{"[0,0]", "[1,0]"}, FaultFree: true},
	}
	verdicts, total, _ := auditTheorems(t, recs,
		map[string]string{"delivery": "[0,0] missed the multicast"})
	if total != 1 {
		t.Errorf("%d violations, want 1", total)
	}
	for _, v := range verdicts {
		if (v.Name == "coverage" || v.Name == "ladder") && !v.NA {
			t.Errorf("auditor %s read a data trace", v.Name)
		}
	}
}

// TestTraceEvidence: a clean trace, a per-packet one, or one the resync
// rung repaired passes, a rekey trace is told by its label, not its
// message, and the auditors a trace cannot feed say n/a.
func TestTraceEvidence(t *testing.T) {
	cases := []struct {
		name string
		recs func([]trace.Record) []trace.Record
		// fails maps each auditor expected to fail to a fragment of its
		// violation; every other auditor must pass.
		fails map[string]string
	}{
		{name: "clean", recs: func(r []trace.Record) []trace.Record { return r }},

		{name: "rekey of an empty message", recs: func(r []trace.Record) []trace.Record {
			r[0].MsgEncs = nil // parses like a data trace; the label says rekey
			return r
		}, fails: map[string]string{"delivery": "no encryption of the message is for subtree"}},

		{name: "per-packet hops carry the whole message", recs: func(r []trace.Record) []trace.Record {
			r[0].Mode = "per-packet" // Theorem 2 binds per-encryption splitting only
			r[6].Encs, r[6].Items = 3, []string{"[]", "[0]", "[0,1]"}
			return r
		}},

		{name: "lost copy, resync rescue", recs: func(r []trace.Record) []trace.Record {
			return append(dropLast(r),
				trace.Record{Kind: "unicast", Trace: "rekey-test", User: "[1,1]", Attempt: 1, SentNS: 100, RecvNS: -1, Dropped: true},
				trace.Record{Kind: "resync", Trace: "rekey-test", User: "[1,1]", Units: 1, SentNS: 150, RecvNS: 170})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			verdicts, _, _ := auditTheorems(t, tc.recs(trace.BaseRecords()), tc.fails)
			for _, v := range verdicts {
				// A trace has no directory or clusters.
				if na := v.Name == "k-consistency" || v.Name == "cluster"; v.NA != na {
					t.Errorf("auditor %s: NA = %v, want %v", v.Name, v.NA, na)
				}
			}
		})
	}
}

// TestTraceEvidenceRejectsBadIDs: an ID the adapter cannot parse is an
// error, not a silent skip; a record missing its ID is skipped, since
// the trace's own audit reports it.
func TestTraceEvidenceRejectsBadIDs(t *testing.T) {
	recs := trace.BaseRecords()
	recs[7].Items = []string{"[]", "[0]", "[0,x]"}
	if _, err := chaos.TraceEvidence(trace.Groups(recs)[0]); err == nil {
		t.Error("a malformed item ID was accepted")
	}
	recs = trace.BaseRecords()
	recs[8].To = ""
	if _, err := chaos.TraceEvidence(trace.Groups(recs)[0]); err != nil {
		t.Errorf("a hop without a receiver failed the adapter: %v", err)
	}
}
