package chaos

import (
	"fmt"
	"slices"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/obs/trace"
	"tmesh/internal/recovery"
	"tmesh/internal/split"
)

// TraceEvidence builds the auditors' evidence from one recorded trace:
// Copies from the receipts of non-dropped hops, Alive and FaultFree from
// the end record, Hops from the hops' receivers and levels, and on a
// per-encryption rekey trace their items and the Message. A rekey trace
// gets a Ladder booked from hop receipts, delivered unicasts and
// resyncs, and owes the survivors whose ID some encryption prefixes
// (Lemma 3); a data trace owes every survivor a copy. Fields a trace
// cannot fill stay nil. A record without its ID is skipped (the trace's
// own audit reports it); an ID that does not parse is an error.
func TraceEvidence(g *trace.Group) (*Evidence, error) {
	var err error
	parse := func(s string) (ident.Prefix, bool) {
		p, perr := ident.ParsePrefix(s)
		if perr != nil && s != "" && err == nil {
			err = fmt.Errorf("chaos: trace %s: %w", g.ID, perr)
		}
		return p, perr == nil
	}
	parseID := func(s string) (ident.ID, bool) {
		p, ok := parse(s)
		return ident.ID(p), ok
	}
	encs := func(ids []string) []keycrypt.Encryption {
		out := []keycrypt.Encryption{} // never nil: an empty message still sets Message
		for _, s := range ids {
			if p, ok := parse(s); ok {
				out = append(out, keycrypt.Encryption{ID: p})
			}
		}
		return out
	}

	// The label, not an empty msg_encs, tells a rekey trace: a rekey of
	// an empty message records no encryption IDs either.
	rekey := g.Open != nil && g.Open.Label == "rekey"
	var msg []keycrypt.Encryption
	if rekey {
		msg = encs(g.Open.MsgEncs)
	}
	// Theorem 2 binds per-encryption splitting only: a packet or an
	// unsplit message legitimately carries unrelated encryptions.
	perEnc := rekey && g.Open.Mode == split.PerEncryption.String()
	ev := &Evidence{FaultFree: g.End == nil || g.End.FaultFree}
	if perEnc {
		ev.Message = msg
	}
	var ladder recovery.Outcome
	copies := make(map[ident.ID]int)
	for _, h := range g.Hops {
		to, ok := parseID(h.To)
		if !ok {
			continue
		}
		d := split.Delivery{To: to, Level: h.Level}
		if perEnc {
			d.Encryptions = encs(h.Items)
		}
		ev.Hops = append(ev.Hops, d)
		if h.Dropped {
			ev.FaultFree = ev.FaultFree && g.End != nil // without an end record, a drop is a fault
			continue
		}
		copies[to]++
		ladder.Settle(to, recovery.ByMulticast, time.Duration(h.RecvNS))
	}

	survivors := make(map[ident.ID]bool)
	ev.Alive = func(id ident.ID) bool { return survivors[id] }
	for _, s := range g.Survivors() {
		id, ok := parseID(s)
		survivors[id] = ok
		if ok && (!rekey || slices.ContainsFunc(msg, func(e keycrypt.Encryption) bool { return e.NeededBy(id) })) {
			ev.Copies = append(ev.Copies, Copy{ID: id, N: copies[id]})
			delete(copies, id)
			if rekey {
				ev.Owed = append(ev.Owed, id)
			}
		}
	}
	// Every other receiver too, so a second copy counts wherever it lands.
	for _, d := range ev.Hops {
		if n := copies[d.To]; n > 0 {
			ev.Copies = append(ev.Copies, Copy{ID: d.To, N: n})
			delete(copies, d.To)
		}
	}

	if rekey {
		rungs := [...][]*trace.Record{recovery.ByUnicast: g.Unicasts, recovery.ByResync: g.Resyncs}
		for rung, recs := range rungs {
			for _, r := range recs {
				if id, ok := parseID(r.User); ok {
					ladder.Settle(id, recovery.Rung(rung), time.Duration(r.RecvNS))
				}
			}
		}
		ladder.Finish()
		slices.SortFunc(ev.Owed, ident.ID.Compare)
		ev.Ladder = &ladder
	}
	if err != nil {
		return nil, err
	}
	return ev, nil
}
