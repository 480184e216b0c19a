package keytree

import (
	"slices"

	"tmesh/internal/ident"
	"tmesh/internal/obs"
	"tmesh/internal/work"
)

// Pending is the batch of one rekey interval (Section 2.4): the joins
// and leaves the key server has accepted since the last boundary. It is
// the only statement of the cancellation rule — every plane queues into
// one and ends its interval with Tree.Flush. The zero value is an empty
// batch.
type Pending struct {
	joins, leaves []ident.ID // arrival order; a cancelled join is zeroed in place
	// at indexes joins by ID. The first Leave that finds joins pending
	// builds it, so a batch of joins alone (a build-up, a flash crowd)
	// is a plain append and a mass join+leave still cancels in O(1).
	at map[ident.ID]int
}

// Join queues a join.
func (p *Pending) Join(id ident.ID) {
	if p.at != nil {
		p.at[id] = len(p.joins)
	}
	p.joins = append(p.joins, id)
}

// Leave queues a leave. A leave of a still-pending join cancels the pair
// — the user came and went between two boundaries and the tree never
// sees it — and reports true. A leave that precedes a re-join of the
// same ID is kept beside it: the tree removes before it inserts, so the
// joiner gets a fresh epoch and fresh keys.
func (p *Pending) Leave(id ident.ID) (cancelled bool) {
	if p.at == nil && len(p.joins) > 0 {
		p.at = make(map[ident.ID]int, len(p.joins))
		for i, j := range p.joins {
			p.at[j] = i
		}
	}
	if i, ok := p.at[id]; ok {
		p.joins[i] = ident.ID{}
		delete(p.at, id)
		return true
	}
	p.leaves = append(p.leaves, id)
	return false
}

// Flush ends the rekey interval: it empties p, applies its joins and
// leaves in ID order through Mark and Regenerate (under the tree's own
// Opts.Label stage labels), and returns the interval's rekey message
// with the join and leave lists it applied. A member leaves once however
// often it was asked to (a graceful leave, then a crash before the
// boundary); a repeated join is the caller's bug and Mark rejects it.
// limit bounds the regeneration fan-out; <= 0 means work.Width(). p is
// empty afterwards even when the batch is rejected.
func (t *Tree) Flush(p *Pending, limit int) (msg *Message, joins, leaves []ident.ID, err error) {
	joins = slices.DeleteFunc(p.joins, ident.ID.IsZero)
	leaves = p.leaves
	*p = Pending{}
	slices.SortFunc(joins, ident.ID.Compare)
	slices.SortFunc(leaves, ident.ID.Compare)
	leaves = slices.Compact(leaves)
	if limit <= 0 {
		limit = work.Width()
	}
	var plan *BatchPlan
	obs.WithStage(t.opts.Label, "mark", func() { plan, err = t.Mark(joins, leaves) })
	if err != nil {
		return nil, nil, nil, err
	}
	obs.WithStage(t.opts.Label, "regen", func() { msg, err = t.Regenerate(plan, limit) })
	return msg, joins, leaves, err
}
