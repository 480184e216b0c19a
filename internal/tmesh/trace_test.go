package tmesh

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/obs"
	"tmesh/internal/obs/trace"
)

// mustKey parses the trace notation "[d0,d1,...]" back into the raw
// Result.Users map key.
func mustKey(t *testing.T, s string) string {
	t.Helper()
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		t.Fatalf("malformed trace ID %q", s)
	}
	body := s[1 : len(s)-1]
	if body == "" {
		return ""
	}
	var key []byte
	for _, p := range strings.Split(body, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			t.Fatalf("malformed trace ID %q: %v", s, err)
		}
		key = append(key, byte(d))
	}
	return string(key)
}

// TestDuplicateDeliveryCounter drives deliver twice for the same user —
// the Theorem 1 alarm the full transport never trips — and checks the
// tmesh_duplicate_deliveries counter fires once per extra copy.
func TestDuplicateDeliveryCounter(t *testing.T) {
	dir, recs := buildGroup(t, 4, 8, 99)
	reg := obs.New()
	m := &machine[int]{
		cfg: Config[int]{Dir: dir, Obs: reg},
		sim: eventsim.New(),
		res: &Result{Users: make(map[string]*UserStats)},
	}
	m.dupC = reg.Counter("tmesh_duplicate_deliveries")
	// Level D stops FORWARD (line 2), so deliver exercises only the
	// bookkeeping under test.
	d := dir.Params().Digits
	m.deliver(recs[0].ID, recs[0].Host, d, recs[1].ID, d-1, 1, 0, 0)
	if got := reg.Counter("tmesh_duplicate_deliveries").Value(); got != 0 {
		t.Fatalf("counter = %d after first copy, want 0", got)
	}
	m.deliver(recs[0].ID, recs[0].Host, d, recs[1].ID, d-1, 1, 0, 0)
	m.deliver(recs[0].ID, recs[0].Host, d, recs[1].ID, d-1, 1, 0, 0)
	if got := reg.Counter("tmesh_duplicate_deliveries").Value(); got != 2 {
		t.Fatalf("counter = %d after two duplicates, want 2", got)
	}
	if st := m.res.Users[recs[0].ID.Key()]; st.Received != 3 {
		t.Fatalf("Received = %d, want 3", st.Received)
	}
}

// TestMulticastNeverCountsDuplicates: a clean session leaves the alarm
// counter at zero.
func TestMulticastNeverCountsDuplicates(t *testing.T) {
	dir, _ := buildGroup(t, 4, 40, 5)
	reg := obs.New()
	if _, err := Multicast(Config[int]{Dir: dir, Obs: reg}, 1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("tmesh_duplicate_deliveries").Value(); got != 0 {
		t.Fatalf("clean multicast bumped the duplicate counter to %d", got)
	}
}

// TestTracedMulticast records a full server multicast and checks that
// the flight record reconstructs it: one non-dropped hop per user, all
// theorem checks green, and byte sizes from the uplink cost model.
func TestTracedMulticast(t *testing.T) {
	dir, recs := buildGroup(t, 4, 40, 11)
	var buf bytes.Buffer
	rec := trace.NewRecorder(11, obs.NewSink(&buf))
	tr := rec.Begin("data", 1, 0, "", nil)
	for _, r := range recs {
		tr.Member(r.ID)
	}
	res, err := Multicast(Config[int]{Dir: dir, Trace: tr}, 1)
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
		st := res.Users[mustKey(t, r.To)]
		if st == nil || st.Level != r.Level {
			t.Errorf("hop to %s at level %d disagrees with result %+v", r.To, r.Level, st)
		}
	}
	if hops != len(recs) {
		t.Fatalf("%d hop records for %d users (Theorem 1 wants one each)", hops, len(recs))
	}

	audits, err := trace.AuditRecords(records)
	if err != nil {
		t.Fatal(err)
	}
	if len(audits) != 1 {
		t.Fatalf("%d audits, want 1", len(audits))
	}
	if a := audits[0]; !a.OK() {
		for _, c := range a.Checks {
			for _, v := range c.Violations {
				t.Errorf("%s: %s", c.Name, v)
			}
		}
		t.Fatal("live multicast trace failed its audit")
	}
}
