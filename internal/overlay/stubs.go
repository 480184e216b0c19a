package overlay

import (
	"cmp"
	"math"
	"slices"

	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

// inf is the K-th RTT of an entry that is not full: no RTT reaches it.
const inf = math.MaxInt64

// stubIndex lets a membership event skip the stub domains it cannot
// change. On a vnet.Stubs network, hosts in different stubs meet only
// through their stubs' uplinks, so RTT(a, b) = up(a) + core(a, b) +
// up(b), exactly. bound(s, c) is at least the largest K-th RTT minus
// the owner's up over the (0,c)-entries of stub s's members (those
// whose top digit is not c), an entry that is not full counting as inf.
// So a member of another stub than x's files x in its (0,c)-entry only
// if up(x) + core < bound(s, c), since put displaces only a strictly
// nearer rank, and holds x there only if up(x) + core <= bound(s, c),
// since a held slot is no farther than its entry's K-th.
//
// A bound is only raised between exact recomputations, and it is
// raised on every path that can raise a K-th RTT: the drop and refill
// of a member's row-0 entry (Leave, Repair) and a joiner's own row 0.
// Join recomputes bound(s, x0) for each stub s it visits; one too high
// only prunes less. A network without the structure is one stub
// holding everyone with up 0, so its events visit every member.
type stubIndex struct {
	net  vnet.Stubs // nil: one stub
	base int

	// By rank, kept while the rank lives (an evicted user's slots are
	// still found through it): the host's stub and up.
	stub []int32
	up   []uint32

	// By stub: the members, the least up anyone ever filed there had,
	// and the bounds, at stub*base + column.
	members [][]ident.Rank
	minUp   []uint32
	bound   []int64

	// One event's scratch, by stub: the core RTT from the event's stub,
	// which stubs it visits, the bounds it recomputes, and the order
	// the joiner's row 0 reads the others in.
	core  []int64
	visit []bool
	acc   []int64
	order []stubDist
}

type stubDist struct {
	lb   int64
	stub int
}

func newStubIndex(net vnet.Network, base int) stubIndex {
	x := stubIndex{base: base}
	n := 1
	if st, ok := net.(vnet.Stubs); ok {
		x.net, n = st, st.NumStubs()
	}
	x.members = make([][]ident.Rank, n)
	x.minUp = make([]uint32, n)
	for s := range x.minUp {
		x.minUp[s] = math.MaxUint32
	}
	x.bound = make([]int64, n*base)
	for i := range x.bound {
		x.bound[i] = math.MinInt64 // nobody there holds anyone
	}
	x.core, x.visit, x.acc = make([]int64, n), make([]bool, n), make([]int64, n)
	return x
}

// add files the joiner at rank r, on host h, in its stub.
func (x *stubIndex) add(r ident.Rank, h vnet.HostID) {
	for int(r) >= len(x.stub) {
		x.stub, x.up = append(x.stub, 0), append(x.up, 0)
	}
	s, up := 0, uint32(0)
	if x.net != nil {
		s, up = x.net.StubOf(h), nanos(x.net.UpRTT(h))
	}
	x.stub[r], x.up[r] = int32(s), up
	x.members[s] = append(x.members[s], r)
	x.minUp[s] = min(x.minUp[s], up)
}

// remove takes the departing rank r out of its stub's members, whose
// order nothing reads.
func (x *stubIndex) remove(r ident.Rank) {
	ms := x.members[x.stub[r]]
	ms[slices.Index(ms, r)] = ms[len(ms)-1]
	x.members[x.stub[r]] = ms[:len(ms)-1]
}

// from fills core with the core RTT from rank r's stub to every stub
// and returns r's stub and up.
func (x *stubIndex) from(r ident.Rank) (int, int64) {
	s := int(x.stub[r])
	if x.net != nil {
		for t := range x.core {
			x.core[t] = int64(x.net.CoreRTT(s, t))
		}
	}
	return s, int64(x.up[r])
}

// over is what member m's (0,c)-entry e weighs in bound(stub(m), c).
func (x *stubIndex) over(m ident.Rank, e Entry) int64 {
	if last := e.slots[len(e.slots)-1]; last.rank != ident.NoRank {
		return int64(last.rtt) - int64(x.up[m])
	}
	return inf
}

// raise lifts bound(stub(m), c) over member m's (0,c)-entry e.
func (x *stubIndex) raise(m ident.Rank, c ident.Digit, e Entry) {
	b := &x.bound[int(x.stub[m])*x.base+c]
	*b = max(*b, x.over(m, e))
}

// admitting marks the stubs whose members may file the joiner at rank
// r, top digit c, and resets their recomputed bounds; all marks every
// stub. It returns the joiner's up.
func (x *stubIndex) admitting(r ident.Rank, c ident.Digit, all bool) int64 {
	s, up := x.from(r)
	for t := range x.visit {
		x.visit[t] = all || t == s || x.bound[t*x.base+c] > up+x.core[t]
		x.acc[t] = math.MinInt64
	}
	return up
}

// holding marks the stubs whose members may hold rank r, top digit c.
func (x *stubIndex) holding(r ident.Rank, c ident.Digit) []bool {
	s, up := x.from(r)
	for t := range x.visit {
		x.visit[t] = t == s || x.bound[t*x.base+c] >= up+x.core[t]
	}
	return x.visit
}

// unvisited lists the stubs admitting did not mark, nearest first by a
// lower bound on their members' RTT to the joiner, whose up is up: up +
// core + the least up filed in the stub.
func (x *stubIndex) unvisited(up int64) []stubDist {
	x.order = x.order[:0]
	for t, v := range x.visit {
		if !v && len(x.members[t]) > 0 {
			x.order = append(x.order, stubDist{lb: up + x.core[t] + int64(x.minUp[t]), stub: t})
		}
	}
	slices.SortFunc(x.order, func(a, b stubDist) int { return cmp.Compare(a.lb, b.lb) })
	return x.order
}

// nearest gathers a joiner's row 0: per column, K slot words, the least
// offered so far in (RTT, rank) order, unused words all ones. That is
// what rank-order puts into the empty entries would keep, since a put
// displaces only a strictly nearer slot and equal RTTs keep arrival
// order, so the order of the offers does not matter.
type nearest struct {
	k     int
	words []uint64
}

func (n nearest) reset() {
	for i := range n.words {
		n.words[i] = math.MaxUint64
	}
}

func (n nearest) offer(col ident.Digit, s slot) {
	e, w := n.words[col*n.k:col*n.k+n.k], s.word()
	i := len(e) - 1
	if w >= e[i] {
		return
	}
	for ; i > 0 && w < e[i-1]; i-- {
		e[i] = e[i-1]
	}
	e[i] = w
}

// kth is column col's K-th RTT, inf while it is not full.
func (n nearest) kth(col ident.Digit) int64 {
	if w := n.words[col*n.k+n.k-1]; w != math.MaxUint64 {
		return int64(wordSlot(w).rtt)
	}
	return inf
}

// farthest is the largest kth but column x0's, the joiner's own.
func (n nearest) farthest(x0 ident.Digit) int64 {
	far := int64(math.MinInt64)
	for col := range len(n.words) / n.k {
		if col != x0 {
			far = max(far, n.kth(col))
		}
	}
	return far
}

// put files column col's slots into the joiner's entry e.
func (n nearest) put(col ident.Digit, e Entry) {
	for _, w := range n.words[col*n.k : col*n.k+n.k] {
		if w != math.MaxUint64 {
			e.put(wordSlot(w).rank, wordSlot(w).rtt)
		}
	}
}
