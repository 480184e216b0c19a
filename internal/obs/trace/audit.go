package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Check is one verdict of a trace's self-audit.
type Check struct {
	// Name identifies the check: "causal-order" (schema, unique spans,
	// parents first) or "level-monotonicity" (levels and sim-times rise
	// along every span, and no split grows the message).
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

// TraceAudit is the self-audit and summary of one trace.
type TraceAudit struct {
	ID       string
	Label    string
	Interval int
	Mode     string

	Members     int
	Survivors   int
	Hops        int
	DroppedHops int
	// Duplicates counts delivered hops beyond each receiver's first.
	Duplicates int
	// Unicasts and Resyncs count the users a delivered unicast or a
	// resync reached.
	Unicasts int
	Resyncs  int

	// Checks holds the verdicts in canonical order.
	Checks []Check
	// Levels holds per-forwarding-level distributions, ascending.
	Levels []LevelStats
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

// Group is one trace's records, by kind, each kind in stream order. The
// pointers are into the slice Groups was given.
type Group struct {
	ID string
	// Open is the "trace" record and End the "end" record; nil when the
	// stream has none.
	Open, End *Record
	// Members lists the users of the "member" records.
	Members []string
	// Hops holds every hop record, dropped or not; Unicasts the
	// delivered unicast records; Resyncs the resync records.
	Hops, Unicasts, Resyncs []*Record

	schema []string // what malformed reports about the records
}

// Groups splits records by trace ID, in first-seen order.
func Groups(records []Record) []*Group {
	var out []*Group
	byID := map[string]*Group{}
	for i := range records {
		rec := &records[i]
		g, ok := byID[rec.Trace]
		if !ok {
			g = &Group{ID: rec.Trace}
			byID[rec.Trace] = g
			out = append(out, g)
		}
		if v := malformed(rec); v != "" {
			g.schema = append(g.schema, v)
		}
		switch rec.Kind {
		case "trace":
			g.Open = rec
		case "member":
			g.Members = append(g.Members, rec.User)
		case "hop":
			g.Hops = append(g.Hops, rec)
		case "unicast":
			if !rec.Dropped && rec.RecvNS >= 0 {
				g.Unicasts = append(g.Unicasts, rec)
			}
		case "resync":
			g.Resyncs = append(g.Resyncs, rec)
		case "end":
			g.End = rec
		}
	}
	return out
}

// Survivors returns the users the delivery guarantees apply to: the end
// record's, or every member when no end record closes the trace (a
// standalone session without an auditing driver).
func (g *Group) Survivors() []string {
	if g.End != nil {
		return g.End.Survivors
	}
	return g.Members
}

// Audit checks the trace's records against each other and summarizes
// them.
func (g *Group) Audit() *TraceAudit {
	a := &TraceAudit{ID: g.ID, Members: len(g.Members), Survivors: len(g.Survivors()), Hops: len(g.Hops),
		Unicasts: distinctUsers(g.Unicasts), Resyncs: distinctUsers(g.Resyncs)}
	causal := append([]string(nil), g.schema...)
	if g.Open != nil {
		a.Label, a.Interval, a.Mode = g.Open.Label, g.Open.Interval, g.Open.Mode
	} else {
		causal = append(causal, "no \"trace\" record opens this trace")
	}
	var mono []string

	// Index hops by span; verify span uniqueness.
	spanAt := map[int64]int{} // span -> index into g.Hops, which keep stream order
	copies := map[string]int{}
	for i, h := range g.Hops {
		if h.Dropped {
			a.DroppedHops++
		} else {
			copies[h.To]++
			if copies[h.To] > 1 {
				a.Duplicates++
			}
		}
		if h.Span <= 0 {
			causal = append(causal, fmt.Sprintf("hop to %s has span %d (spans are dense from 1)", h.To, h.Span))
			continue
		}
		if prev, dup := spanAt[h.Span]; dup {
			causal = append(causal, fmt.Sprintf("span %d reused (hops %d and %d)", h.Span, prev+1, i+1))
			continue
		}
		spanAt[h.Span] = i
	}

	// Causal order + level monotonicity, hop by hop.
	for i, h := range g.Hops {
		if h.Level < 1 {
			mono = append(mono, fmt.Sprintf("span %d: forwarding level %d < 1", h.Span, h.Level))
		}
		if !h.Dropped && h.RecvNS < h.SentNS {
			mono = append(mono, fmt.Sprintf("span %d: received at %dns before sent at %dns", h.Span, h.RecvNS, h.SentNS))
		}
		if h.EncsIn < h.Encs {
			mono = append(mono, fmt.Sprintf("span %d grew the message across the split (%d -> %d)", h.Span, h.EncsIn, h.Encs))
		}
		if h.Parent == 0 {
			continue
		}
		pi, ok := spanAt[h.Parent]
		if !ok {
			causal = append(causal, fmt.Sprintf("span %d: parent span %d never recorded", h.Span, h.Parent))
			continue
		}
		if pi > i {
			causal = append(causal, fmt.Sprintf("span %d precedes its parent span %d in the stream", h.Span, h.Parent))
		}
		p := g.Hops[pi]
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

	a.Checks = []Check{
		{Name: "causal-order", Violations: causal},
		{Name: "level-monotonicity", Violations: mono},
	}
	a.Levels = levelStats(g.Hops)
	return a
}

// malformed names what a record lacks, or returns "" when it is whole:
// a trace's label, a member, unicast or resync record's user, a hop's
// receiver, and a hop's item list that disagrees with its count. (An
// empty trace ID shows up as a trace that no "trace" record opens.)
func malformed(rec *Record) string {
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
		if len(rec.Items) > 0 && len(rec.Items) != rec.Encs {
			return fmt.Sprintf("hop span %d lists %d items but counts %d", rec.Span, len(rec.Items), rec.Encs)
		}
	}
	return ""
}

func distinctUsers(recs []*Record) int {
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.User] = true
	}
	return len(seen)
}

// levelStats folds the hop records into per-forwarding-level
// distributions, ascending by level.
func levelStats(hops []*Record) []LevelStats {
	byLevel := map[int]*LevelStats{}
	lats := map[int][]int64{}
	for _, h := range hops {
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
	out := make([]LevelStats, 0, len(byLevel))
	for l, ls := range byLevel {
		if samples := lats[l]; len(samples) > 0 {
			slices.Sort(samples)
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
	slices.SortFunc(out, func(a, b LevelStats) int { return a.Level - b.Level })
	return out
}
