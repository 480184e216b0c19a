// The trace analyzer: reconstructs the delivery tree of each recorded
// multicast from its hop records and machine-checks the paper's path
// theorems against it. Where the chaos soak's auditors check live
// engine state, this audit works entirely from the JSONL flight-record,
// so a failed soak can be diagnosed offline, hop by hop.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"tmesh/internal/ident"
)

// Check is one theorem-level verdict of a trace audit.
type Check struct {
	// Name identifies the check: "causal-order", "level-monotonicity",
	// "exactly-one-copy" (Theorem 1), "forward-minimality" (Theorem 2),
	// or "coverage" (Lemma 3).
	Name string
	// Violations lists every failure; empty means the check passed.
	Violations []string
}

// LevelStats aggregates the hops that arrived at one forwarding level —
// the per-level hop-count and sim-latency distributions behind the
// Fig. 6/8-style latency TSVs.
type LevelStats struct {
	Level   int
	Hops    int
	Dropped int
	// Units sums the payload units (encryptions) of non-dropped hops.
	Units int
	// Latency of non-dropped hops (recv - sent), sim-clock nanoseconds.
	LatencyMeanNS, LatencyP95NS, LatencyMaxNS int64
}

// TraceAudit is the audited reconstruction of one trace.
type TraceAudit struct {
	ID       string
	Label    string
	Interval int
	Mode     string

	Members     int
	Survivors   int
	Hops        int
	DroppedHops int
	Duplicates  int
	Unicasts    int
	Resyncs     int

	// Checks holds the verdicts in canonical order.
	Checks []Check
	// Levels holds per-forwarding-level distributions, ascending.
	Levels []LevelStats
}

// OK reports whether every check passed.
func (a *TraceAudit) OK() bool { return a.TotalViolations() == 0 }

// TotalViolations counts failures across all checks.
func (a *TraceAudit) TotalViolations() int {
	n := 0
	for _, c := range a.Checks {
		n += len(c.Violations)
	}
	return n
}

// ParseRecords reads a JSONL trace stream, keeping every record whose
// kind belongs to this package and skipping foreign lines (a combined
// stream may interleave soak interval records).
func ParseRecords(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch rec.Kind {
		case "trace", "member", "hop", "unicast", "resync", "end":
			out = append(out, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

// parsePrefix reads the "[d0,d1,...]" notation back into an ident
// prefix ("[]" yields the empty prefix, which is also how the key
// server appears as a hop origin).
func parsePrefix(s string) (ident.Prefix, error) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return ident.Prefix{}, fmt.Errorf("trace: malformed ID %q", s)
	}
	body := s[1 : len(s)-1]
	if body == "" {
		return ident.EmptyPrefix, nil
	}
	parts := strings.Split(body, ",")
	key := make([]byte, 0, len(parts))
	for _, p := range parts {
		d, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || d < 0 || d > 255 {
			return ident.Prefix{}, fmt.Errorf("trace: malformed digit in %q", s)
		}
		key = append(key, byte(d))
	}
	return ident.PrefixFromKey(string(key)), nil
}

// traceState is the grouped raw material of one trace.
type traceState struct {
	meta    *Record
	members []string        // user IDs in record order
	hops    []int           // indices into the record slice
	unicast map[string]bool // user -> delivered by rung 2
	resync  map[string]bool // user -> delivered by rung 3
	end     *Record
	schema  []string // records that lack a required field
}

// AuditRecords groups records by trace ID (in first-seen order), runs
// every check on each trace, and returns the audits. It fails only on
// structurally unusable input (an unparsable ID); check violations are
// reported in the audits, not as errors.
func AuditRecords(records []Record) ([]*TraceAudit, error) {
	order := []string{}
	states := map[string]*traceState{}
	stateOf := func(id string) *traceState {
		st, ok := states[id]
		if !ok {
			st = &traceState{unicast: map[string]bool{}, resync: map[string]bool{}}
			states[id] = st
			order = append(order, id)
		}
		return st
	}
	for i := range records {
		rec := &records[i]
		st := stateOf(rec.Trace)
		if v := missingField(rec); v != "" {
			st.schema = append(st.schema, v)
		}
		switch rec.Kind {
		case "trace":
			st.meta = rec
		case "member":
			st.members = append(st.members, rec.User)
		case "hop":
			st.hops = append(st.hops, i)
		case "unicast":
			if !rec.Dropped && rec.RecvNS >= 0 {
				st.unicast[rec.User] = true
			}
		case "resync":
			st.resync[rec.User] = true
		case "end":
			st.end = rec
		}
	}
	var out []*TraceAudit
	for _, id := range order {
		a, err := auditTrace(id, states[id], records)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func auditTrace(id string, st *traceState, records []Record) (*TraceAudit, error) {
	a := &TraceAudit{ID: id, Members: len(st.members), Unicasts: len(st.unicast), Resyncs: len(st.resync)}
	schema := st.schema
	var msgEncs []ident.Prefix
	if st.meta != nil {
		a.Label = st.meta.Label
		a.Interval = st.meta.Interval
		a.Mode = st.meta.Mode
		for _, s := range st.meta.MsgEncs {
			p, err := parsePrefix(s)
			if err != nil {
				return nil, err
			}
			msgEncs = append(msgEncs, p)
		}
	} else {
		schema = append(schema, "no \"trace\" record opens this trace")
	}

	// Survivor set: the closing record when present, else every member
	// (standalone sessions without an auditing driver). Fault-freedom
	// defaults to "no hop was dropped".
	survivors := st.members
	faultFree := true
	if st.end != nil {
		survivors = st.end.Survivors
		faultFree = st.end.FaultFree
	}
	a.Survivors = len(survivors)

	var causal, mono, exact, minimal, coverage []string
	causal = append(causal, schema...)

	// Index hops by span; verify span uniqueness and stream order.
	spanAt := map[int64]int{} // span -> record index
	for _, ri := range st.hops {
		h := &records[ri]
		a.Hops++
		if h.Dropped {
			a.DroppedHops++
			faultFree = st.end != nil && st.end.FaultFree // a dropped hop means losses were live
		}
		if h.Span <= 0 {
			causal = append(causal, fmt.Sprintf("hop to %s has span %d (spans are dense from 1)", h.To, h.Span))
			continue
		}
		if prev, dup := spanAt[h.Span]; dup {
			causal = append(causal, fmt.Sprintf("span %d reused (records %d and %d)", h.Span, prev, ri))
			continue
		}
		spanAt[h.Span] = ri
	}

	// Causal order + level monotonicity, hop by hop.
	for _, ri := range st.hops {
		h := &records[ri]
		if h.Level < 1 {
			mono = append(mono, fmt.Sprintf("span %d: forwarding level %d < 1", h.Span, h.Level))
		}
		if !h.Dropped && h.RecvNS < h.SentNS {
			mono = append(mono, fmt.Sprintf("span %d: received at %dns before sent at %dns", h.Span, h.RecvNS, h.SentNS))
		}
		if h.Parent == 0 {
			continue
		}
		pi, ok := spanAt[h.Parent]
		if !ok {
			causal = append(causal, fmt.Sprintf("span %d: parent span %d never recorded", h.Span, h.Parent))
			continue
		}
		if pi > ri {
			causal = append(causal, fmt.Sprintf("span %d at record %d precedes its parent span %d at record %d", h.Span, ri, h.Parent, pi))
		}
		p := &records[pi]
		if p.Dropped {
			causal = append(causal, fmt.Sprintf("span %d forwarded by %s, but parent span %d was dropped", h.Span, h.From, h.Parent))
		}
		if h.From != p.To {
			mono = append(mono, fmt.Sprintf("span %d forwarded by %s, but parent span %d delivered to %s", h.Span, h.From, h.Parent, p.To))
		}
		if h.Level <= p.Level {
			mono = append(mono, fmt.Sprintf("span %d: level %d does not exceed parent level %d (FORWARD sets s+1 > i)", h.Span, h.Level, p.Level))
		}
		if !p.Dropped && h.SentNS < p.RecvNS {
			mono = append(mono, fmt.Sprintf("span %d sent at %dns before its forwarder received at %dns", h.Span, h.SentNS, p.RecvNS))
		}
	}

	// Theorem 1: at most one delivered copy per user, always; exactly
	// one for every (needing) survivor in a fault-free interval.
	delivered := map[string]int{}
	items := map[string][]string{} // user -> delivered encryption IDs
	for _, ri := range st.hops {
		h := &records[ri]
		if h.Dropped {
			continue
		}
		delivered[h.To]++
		items[h.To] = append(items[h.To], h.Items...)
	}
	users := make([]string, 0, len(delivered))
	for u := range delivered {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		if n := delivered[u]; n > 1 {
			a.Duplicates += n - 1
			exact = append(exact, fmt.Sprintf("user %s received %d copies (Theorem 1: at most one)", u, n))
		}
	}
	needsOf := func(user string) ([]ident.Prefix, error) {
		u, err := parsePrefix(user)
		if err != nil {
			return nil, err
		}
		var out []ident.Prefix
		for _, e := range msgEncs {
			if u.HasPrefix(e) { // Lemma 3: e.ID is a prefix of u.ID
				out = append(out, e)
			}
		}
		return out, nil
	}
	for _, user := range survivors {
		needs, err := needsOf(user)
		if err != nil {
			return nil, err
		}
		gotCopy := delivered[user] > 0
		recovered := st.unicast[user] || st.resync[user]
		switch {
		case msgEncs == nil:
			// Data trace: no splitting, every survivor is owed a copy.
			if faultFree && !gotCopy {
				exact = append(exact, fmt.Sprintf("survivor %s missed the multicast in a fault-free interval", user))
			}
		case len(needs) > 0:
			// Rekey trace: the ladder owes every needing survivor a
			// delivery by some rung, faults or not.
			if !gotCopy && !recovered {
				coverage = append(coverage, fmt.Sprintf("survivor %s needed %d encryptions but no rung delivered", user, len(needs)))
			}
			if faultFree && !gotCopy {
				exact = append(exact, fmt.Sprintf("needing survivor %s missed the multicast in a fault-free interval", user))
			}
			// Lemma 3: the delivered copy must contain the user's slice.
			if gotCopy && len(items[user]) > 0 && !coversNeeds(items[user], needs) {
				coverage = append(coverage, fmt.Sprintf("survivor %s's delivered copy lacks part of its Lemma 3 slice", user))
			}
		}
	}

	// Theorem 2: with per-encryption splitting, a hop carries exactly
	// the encryptions prefix-related to its covered subtree — and a hop
	// toward a subtree that needs nothing must not exist at all.
	if st.meta != nil && st.meta.Mode == "per-encryption" && msgEncs != nil {
		for _, ri := range st.hops {
			h := &records[ri]
			subtree, err := parsePrefix(h.Subtree)
			if err != nil {
				return nil, err
			}
			var want []string
			for i, e := range msgEncs {
				if e.Related(subtree) {
					want = append(want, st.meta.MsgEncs[i])
				}
			}
			if len(want) == 0 {
				minimal = append(minimal, fmt.Sprintf("span %d forwarded to subtree %s, which no downstream user needs (Theorem 2)", h.Span, h.Subtree))
				continue
			}
			if h.Encs != len(want) {
				minimal = append(minimal, fmt.Sprintf("span %d to subtree %s carries %d encryptions, REKEY-MESSAGE-SPLIT selects %d", h.Span, h.Subtree, h.Encs, len(want)))
			}
			if len(h.Items) > 0 && !equalStrings(h.Items, want) {
				minimal = append(minimal, fmt.Sprintf("span %d to subtree %s carries the wrong encryption set", h.Span, h.Subtree))
			}
			if h.EncsIn < h.Encs {
				minimal = append(minimal, fmt.Sprintf("span %d grew the message across the split (%d -> %d)", h.Span, h.EncsIn, h.Encs))
			}
		}
	}

	a.Checks = []Check{
		{Name: "causal-order", Violations: causal},
		{Name: "level-monotonicity", Violations: mono},
		{Name: "exactly-one-copy", Violations: exact},
		{Name: "forward-minimality", Violations: minimal},
		{Name: "coverage", Violations: coverage},
	}
	a.Levels = levelStats(st.hops, records)
	return a, nil
}

// missingField names the required field a record lacks, or returns ""
// when it has them all: a trace's label, a member, unicast or resync
// record's user, a hop's receiver. (An empty trace ID shows up as a trace
// that no "trace" record opens.)
func missingField(rec *Record) string {
	switch rec.Kind {
	case "trace":
		if rec.Label == "" {
			return `"trace" record without a label`
		}
	case "member", "unicast", "resync":
		if rec.User == "" {
			return fmt.Sprintf("%q record without a user", rec.Kind)
		}
	case "hop":
		if rec.To == "" {
			return fmt.Sprintf("hop span %d without a receiver", rec.Span)
		}
	}
	return ""
}

// coversNeeds reports whether the delivered item multiset contains the
// needed encryption multiset.
func coversNeeds(items []string, needs []ident.Prefix) bool {
	have := map[string]int{}
	for _, it := range items {
		have[it]++
	}
	for _, n := range needs {
		k := n.String()
		if have[k] == 0 {
			return false
		}
		have[k]--
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// levelStats folds the hop records into per-forwarding-level
// distributions, ascending by level.
func levelStats(hops []int, records []Record) []LevelStats {
	byLevel := map[int]*LevelStats{}
	lats := map[int][]int64{}
	for _, ri := range hops {
		h := &records[ri]
		ls, ok := byLevel[h.Level]
		if !ok {
			ls = &LevelStats{Level: h.Level}
			byLevel[h.Level] = ls
		}
		ls.Hops++
		if h.Dropped {
			ls.Dropped++
			continue
		}
		ls.Units += h.Encs
		lats[h.Level] = append(lats[h.Level], h.RecvNS-h.SentNS)
	}
	levels := make([]int, 0, len(byLevel))
	for l := range byLevel {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	out := make([]LevelStats, 0, len(levels))
	for _, l := range levels {
		ls := byLevel[l]
		if samples := lats[l]; len(samples) > 0 {
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			var sum int64
			for _, v := range samples {
				sum += v
			}
			ls.LatencyMeanNS = sum / int64(len(samples))
			ls.LatencyP95NS = samples[(95*len(samples)-1)/100]
			ls.LatencyMaxNS = samples[len(samples)-1]
		}
		out = append(out, *ls)
	}
	return out
}
