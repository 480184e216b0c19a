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
	groups := Groups(recs)
	if len(groups) != 1 {
		t.Fatalf("%d traces, want 1", len(groups))
	}
	return groups[0].Audit()
}

func wantViolation(t *testing.T, a *TraceAudit, check, substr string) {
	t.Helper()
	for _, c := range a.Checks {
		if c.Name != check {
			continue // other checks may legitimately co-fire
		}
		for _, v := range c.Violations {
			if strings.Contains(v, substr) {
				return
			}
		}
		t.Fatalf("check %s violations %v lack %q", check, c.Violations, substr)
	}
	t.Fatalf("no check named %s", check)
}

func TestAuditAllGreen(t *testing.T) {
	a := auditOne(t, baseRecords())
	for _, c := range a.Checks {
		if len(c.Violations) > 0 {
			t.Fatalf("clean trace failed: %+v", a.Checks)
		}
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

	recs = baseRecords()
	recs[6].EncsIn = 0 // the split handed on more than it was given
	wantViolation(t, auditOne(t, recs), "level-monotonicity", "grew the message across the split (0 -> 1)")
}

// TestAuditSummaryCounts pins the counts traceaudit prints per trace:
// extra delivered copies, dropped hops, and the users a delivered
// unicast or a resync reached (a dropped unicast reaches nobody).
func TestAuditSummaryCounts(t *testing.T) {
	recs := baseRecords()
	dup := recs[8] // a second copy to [1,1]
	dup.Span, dup.Parent, dup.From = 5, 1, "[0,0]"
	recs[7].Dropped, recs[7].RecvNS = true, -1
	recs = append(recs, dup,
		Record{Kind: "unicast", Trace: "rekey-test", User: "[0,1]", Attempt: 1, SentNS: 100, RecvNS: -1, Dropped: true},
		Record{Kind: "unicast", Trace: "rekey-test", User: "[0,1]", Attempt: 2, SentNS: 150, RecvNS: 170},
		Record{Kind: "unicast", Trace: "rekey-test", User: "[0,1]", Attempt: 3, SentNS: 180, RecvNS: 190},
		Record{Kind: "resync", Trace: "rekey-test", User: "[1,0]", SentNS: 200, RecvNS: 230})
	a := auditOne(t, recs)
	if a.Hops != 5 || a.DroppedHops != 1 || a.Duplicates != 1 || a.Unicasts != 1 || a.Resyncs != 1 {
		t.Errorf("hops=%d dropped=%d duplicates=%d unicasts=%d resyncs=%d, want 5/1/1/1/1",
			a.Hops, a.DroppedHops, a.Duplicates, a.Unicasts, a.Resyncs)
	}
}

// TestAuditSchemaFields: a record without a field the audit needs to
// place it, or a hop whose items disagree with its count, is a schema
// violation, reported under causal-order.
func TestAuditSchemaFields(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		mutate     func([]Record)
	}{
		{"trace label", `"trace" record without a label`, func(r []Record) { r[0].Label = "" }},
		{"member user", `"member" record without a user`, func(r []Record) { r[1].User = "" }},
		{"hop receiver", "hop span 4 without a receiver", func(r []Record) { r[8].To = "" }},
		{"hop item count", "hop span 2 lists 1 items but counts 3", func(r []Record) { r[6].Encs = 3 }},
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
