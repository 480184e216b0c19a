package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"tmesh/internal/chaos"
	"tmesh/internal/ident"
	"tmesh/internal/obs"
	"tmesh/internal/obs/trace"
)

// soakTrace records a short lossy soak and returns its trace records.
func soakTrace(t *testing.T) []trace.Record {
	t.Helper()
	cfg := chaos.DefaultConfig(5)
	cfg.Intervals, cfg.InitialMembers, cfg.HopLoss = 4, 60, 0.15
	var buf bytes.Buffer
	cfg.TraceSink = obs.NewSink(&buf)
	e, err := chaos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ParseRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// writeTrace writes records as a JSONL file and returns its path.
func writeTrace(t *testing.T, recs []trace.Record) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runAudit(args ...string) (int, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String() + errOut.String()
}

func TestAuditsASoakTrace(t *testing.T) {
	code, out := runAudit(writeTrace(t, soakTrace(t)))
	if code != 0 {
		t.Fatalf("exit %d on a clean soak trace:\n%s", code, out)
	}
	// Every chaos auditor reports on every trace; the trace has no
	// directory or clusters to give two of them.
	for _, line := range []string{`(?m)^#   delivery +ok$`, `(?m)^#   ladder +ok$`, `(?m)^#   k-consistency +n/a$`, `(?m)^#   cluster +n/a$`} {
		if !regexp.MustCompile(line).MatchString(out) {
			t.Errorf("output lacks %s:\n%s", line, out)
		}
	}
}

// firstRekeyHop returns the index of the first delivered hop of a
// per-encryption rekey trace and that trace's message.
func firstRekeyHop(t *testing.T, recs []trace.Record) (int, []string) {
	t.Helper()
	msgs := map[string][]string{}
	for i, r := range recs {
		switch {
		case r.Kind == "trace" && r.Label == "rekey":
			msgs[r.Trace] = r.MsgEncs
		case r.Kind == "hop" && !r.Dropped && msgs[r.Trace] != nil:
			return i, msgs[r.Trace]
		}
	}
	t.Fatal("no delivered rekey hop in the soak trace")
	return 0, nil
}

// TestFailsUnderDelivery: a second copy of one hop and a hop carrying
// an encryption its subtree does not need both fail, under chaos's
// delivery auditor.
func TestFailsUnderDelivery(t *testing.T) {
	base := soakTrace(t)

	dup := slices.Clone(base)
	i, _ := firstRekeyHop(t, dup)
	extra := dup[i]
	extra.Span = 1 << 40 // a fresh span: only the second copy is wrong
	dup = slices.Insert(dup, i+1, extra)
	code, out := runAudit(writeTrace(t, dup))
	if code != 1 || !regexp.MustCompile(`(?m)^#   delivery +FAIL`).MatchString(out) ||
		!strings.Contains(out, extra.To+" received 2 copies") {
		t.Errorf("duplicated hop: exit %d, want 1 with a delivery violation:\n%s", code, out)
	}

	unneeded := slices.Clone(base)
	i, msg := firstRekeyHop(t, unneeded)
	h := &unneeded[i]
	to, err := ident.ParsePrefix(h.To)
	if err != nil {
		t.Fatal(err)
	}
	w := ident.IDFromKey(to.Key()).Prefix(h.Level)
	added := ""
	for _, s := range msg {
		if e, err := ident.ParsePrefix(s); err == nil && !e.Related(w) {
			added = s
			break
		}
	}
	if added == "" {
		t.Fatalf("every encryption of the message relates to %v", w)
	}
	h.Items = append(slices.Clone(h.Items), added)
	h.Encs++
	h.EncsIn = max(h.EncsIn, h.Encs)
	code, out = runAudit(writeTrace(t, unneeded))
	if code != 1 || !regexp.MustCompile(`(?m)^#   delivery +FAIL`).MatchString(out) ||
		!strings.Contains(out, "unrelated subtree "+added) {
		t.Errorf("hop with an unneeded encryption: exit %d, want 1 with a delivery violation:\n%s", code, out)
	}
}

func TestUsageAndInputErrors(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "foreign.jsonl")
	if err := os.WriteFile(foreign, []byte(`{"kind":"interval","interval":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no arguments", nil},
		{"missing file", []string{filepath.Join(dir, "absent.jsonl")}},
		{"no trace records", []string{foreign}},
	} {
		if code, out := runAudit(tc.args...); code != 2 {
			t.Errorf("%s: exit %d, want 2:\n%s", tc.name, code, out)
		}
	}
}
