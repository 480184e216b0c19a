package trace

import (
	"strings"
	"testing"
)

// baseRecords builds a well-formed two-level rekey trace over four
// users [0,0] [0,1] [1,0] [1,1]: the server feeds one user per level-1
// subtree, each of which forwards to its sibling. Message: the group
// key [], the subtree key [0], and the individual key [0,1].
func baseRecords() []Record {
	const id = "rekey-test"
	all := []string{"[]", "[0]", "[0,1]"}
	return []Record{
		{Kind: "trace", Trace: id, Label: "rekey", Seq: 1, Interval: 1,
			Mode: "per-encryption", MsgEncs: all},
		{Kind: "member", Trace: id, User: "[0,0]"},
		{Kind: "member", Trace: id, User: "[0,1]"},
		{Kind: "member", Trace: id, User: "[1,0]"},
		{Kind: "member", Trace: id, User: "[1,1]"},
		{Kind: "hop", Trace: id, Span: 1, Parent: 0, From: "[]", FromLevel: 0,
			To: "[0,0]", Level: 1, Subtree: "[0]", EncsIn: 3, Encs: 3,
			Items: all, SentNS: 10, RecvNS: 20},
		{Kind: "hop", Trace: id, Span: 2, Parent: 0, From: "[]", FromLevel: 0,
			To: "[1,0]", Level: 1, Subtree: "[1]", EncsIn: 3, Encs: 1,
			Items: []string{"[]"}, SentNS: 10, RecvNS: 25},
		{Kind: "hop", Trace: id, Span: 3, Parent: 1, From: "[0,0]", FromLevel: 1,
			To: "[0,1]", Level: 2, Subtree: "[0,1]", EncsIn: 3, Encs: 3,
			Items: all, SentNS: 20, RecvNS: 32},
		{Kind: "hop", Trace: id, Span: 4, Parent: 2, From: "[1,0]", FromLevel: 1,
			To: "[1,1]", Level: 2, Subtree: "[1,1]", EncsIn: 1, Encs: 1,
			Items: []string{"[]"}, SentNS: 25, RecvNS: 31},
		{Kind: "end", Trace: id,
			Survivors: []string{"[0,0]", "[0,1]", "[1,0]", "[1,1]"}, FaultFree: true},
	}
}

func auditOne(t *testing.T, recs []Record) *TraceAudit {
	t.Helper()
	audits, err := AuditRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(audits) != 1 {
		t.Fatalf("%d audits, want 1", len(audits))
	}
	return audits[0]
}

func wantViolation(t *testing.T, a *TraceAudit, check, substr string) {
	t.Helper()
	for _, c := range a.Checks {
		if c.Name != check {
			if len(c.Violations) > 0 && check != c.Name {
				continue // other checks may legitimately co-fire
			}
			continue
		}
		if len(c.Violations) == 0 {
			t.Fatalf("check %s passed, want a violation mentioning %q", check, substr)
		}
		for _, v := range c.Violations {
			if strings.Contains(v, substr) {
				return
			}
		}
		t.Fatalf("check %s violations %v lack %q", check, c.Violations, substr)
	}
}

func TestAuditAllGreen(t *testing.T) {
	a := auditOne(t, baseRecords())
	if !a.OK() {
		t.Fatalf("clean trace failed: %+v", a.Checks)
	}
	if a.Members != 4 || a.Survivors != 4 || a.Hops != 4 || a.DroppedHops != 0 || a.Duplicates != 0 {
		t.Errorf("counts wrong: %+v", a)
	}
	if len(a.Levels) != 2 || a.Levels[0].Level != 1 || a.Levels[1].Level != 2 {
		t.Fatalf("levels = %+v", a.Levels)
	}
	if a.Levels[0].Hops != 2 || a.Levels[0].Units != 4 {
		t.Errorf("level 1 stats = %+v", a.Levels[0])
	}
	// Level-1 latencies are 10 and 15 ns.
	if a.Levels[0].LatencyMeanNS != 12 || a.Levels[0].LatencyMaxNS != 15 {
		t.Errorf("level 1 latency = %+v", a.Levels[0])
	}
}

func TestAuditCausalOrder(t *testing.T) {
	recs := baseRecords()
	recs[7].Parent = 99 // span 3 references a parent never recorded
	wantViolation(t, auditOne(t, recs), "causal-order", "parent span 99")

	recs = baseRecords()
	// Move the child hop before its parent in the stream.
	recs[5], recs[7] = recs[7], recs[5]
	wantViolation(t, auditOne(t, recs), "causal-order", "precedes its parent")

	recs = baseRecords()
	recs[6].Span = 1 // span collision
	wantViolation(t, auditOne(t, recs), "causal-order", "reused")
}

func TestAuditLevelMonotonicity(t *testing.T) {
	recs := baseRecords()
	recs[7].Level = 1 // child claims the same level as its parent
	wantViolation(t, auditOne(t, recs), "level-monotonicity", "does not exceed parent level")

	recs = baseRecords()
	recs[7].From = "[1,0]" // forwarder is not who the parent delivered to
	wantViolation(t, auditOne(t, recs), "level-monotonicity", "parent span 1 delivered to")

	recs = baseRecords()
	recs[7].SentNS = 5 // forwarded before the forwarder received it
	wantViolation(t, auditOne(t, recs), "level-monotonicity", "before its forwarder received")
}

func TestAuditExactlyOneCopy(t *testing.T) {
	recs := baseRecords()
	dup := recs[8] // second copy to [1,1]
	dup.Span = 5
	dup.Parent = 1
	dup.From = "[0,0]"
	dup.SentNS, dup.RecvNS = 21, 40
	recs = append(recs, dup)
	a := auditOne(t, recs)
	wantViolation(t, a, "exactly-one-copy", "received 2 copies")
	if a.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", a.Duplicates)
	}

	// A needing survivor that never got a copy in a fault-free run.
	recs = baseRecords()
	recs = recs[:8] // drop the hop to [1,1] and the end record
	recs = append(recs, Record{Kind: "end", Trace: "rekey-test",
		Survivors: []string{"[0,0]", "[0,1]", "[1,0]", "[1,1]"}, FaultFree: true})
	a = auditOne(t, recs)
	wantViolation(t, a, "exactly-one-copy", "[1,1] missed the multicast")
	wantViolation(t, a, "coverage", "[1,1] needed 1 encryptions")
}

func TestAuditForwardMinimality(t *testing.T) {
	recs := baseRecords()
	recs[6].Encs = 3
	recs[6].Items = []string{"[]", "[0]", "[0,1]"} // over-forwarding into subtree [1]
	wantViolation(t, auditOne(t, recs), "forward-minimality", "REKEY-MESSAGE-SPLIT selects 1")

	recs = baseRecords()
	recs[6].Items = []string{"[0]"} // right count, wrong encryption
	wantViolation(t, auditOne(t, recs), "forward-minimality", "wrong encryption set")

	// A hop toward a subtree nobody needs. The group key [] relates to
	// every subtree, so shrink the message to subtree-[0] keys only:
	// span 2's hop into subtree [1] is then pure waste.
	recs = baseRecords()
	recs[0].MsgEncs = []string{"[0]", "[0,1]"}
	wantViolation(t, auditOne(t, recs), "forward-minimality", "no downstream user needs")
}

func TestAuditCoverageViaLadder(t *testing.T) {
	// [1,1]'s multicast copy is dropped, but a unicast rung saves it:
	// coverage must pass, exactly-one-copy must pass (faults were live).
	recs := baseRecords()
	recs[8].Dropped = true
	recs[8].RecvNS = -1
	recs[9].FaultFree = false
	recs = append(recs, Record{Kind: "unicast", Trace: "rekey-test",
		User: "[1,1]", Attempt: 1, Units: 1, SentNS: 100, RecvNS: 120})
	a := auditOne(t, recs)
	if !a.OK() {
		t.Fatalf("ladder-recovered trace failed: %+v", a.Checks)
	}
	if a.DroppedHops != 1 || a.Unicasts != 1 {
		t.Errorf("DroppedHops=%d Unicasts=%d, want 1/1", a.DroppedHops, a.Unicasts)
	}

	// Same drop with no recovery rung: coverage fails.
	recs = baseRecords()
	recs[8].Dropped = true
	recs[8].RecvNS = -1
	recs[9].FaultFree = false
	wantViolation(t, auditOne(t, recs), "coverage", "no rung delivered")
}

func TestAuditDataTrace(t *testing.T) {
	// A data trace (no MsgEncs): every survivor is owed a copy when
	// fault-free.
	const id = "data-test"
	recs := []Record{
		{Kind: "trace", Trace: id, Label: "data", Seq: 1, Interval: 2, SentNS: 5},
		{Kind: "member", Trace: id, User: "[0,0]"},
		{Kind: "member", Trace: id, User: "[1,0]"},
		{Kind: "hop", Trace: id, Span: 1, From: "[0,0]", FromLevel: 0, To: "[1,0]",
			Level: 1, Subtree: "[1]", EncsIn: 1, Encs: 1, SentNS: 5, RecvNS: 9},
		{Kind: "end", Trace: id, Survivors: []string{"[0,0]", "[1,0]"}, FaultFree: true},
	}
	a := auditOne(t, recs)
	// [0,0] is the sender: senders receive nothing, so a data audit only
	// flags non-senders... the sender appears as a hop origin.
	if n := a.TotalViolations(); n != 1 {
		t.Fatalf("want exactly the sender's missing-copy violation, got %+v", a.Checks)
	}
	wantViolation(t, a, "exactly-one-copy", "[0,0] missed the multicast")
}

// TestAuditSchemaFields: a record without a field the audit needs to
// place it is a schema violation, reported under causal-order.
func TestAuditSchemaFields(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		mutate     func([]Record)
	}{
		{"trace label", `"trace" record without a label`, func(r []Record) { r[0].Label = "" }},
		{"member user", `"member" record without a user`, func(r []Record) { r[1].User = "" }},
		{"hop receiver", "hop span 4 without a receiver", func(r []Record) { r[8].To = "" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := baseRecords()
			tc.mutate(recs)
			wantViolation(t, auditOne(t, recs), "causal-order", tc.want)
		})
	}
}

func TestParseRecordsSkipsForeignKinds(t *testing.T) {
	in := strings.Join([]string{
		`{"kind":"interval","interval":1}`,
		`{"kind":"trace","trace":"t","label":"data"}`,
		`{"kind":"hop","trace":"t","span":1,"to":"[1]","level":1,"sent_ns":1,"recv_ns":2}`,
	}, "\n")
	recs, err := ParseRecords(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("kept %d records, want 2 (interval records are foreign)", len(recs))
	}
}
