package overlay

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

var tp = ident.Params{Digits: 3, Base: 4}

// NewTable creates an empty stand-alone table for the owner, checked
// like the key server's: its roster is made on its first insert and its
// row 0 is a private one-rank store.
func NewTable(params ident.Params, k int, owner Record) (*Table, error) {
	st, err := NewServerTable(params, k, 0)
	if err != nil {
		return nil, err
	}
	if owner.ID.Len() != params.Digits {
		return nil, fmt.Errorf("owner ID %v has %d digits, want %d", owner.ID, owner.ID.Len(), params.Digits)
	}
	return newTable(params, owner, nil, st.cols, 0), nil
}

func rec(t *testing.T, host int, digits ...ident.Digit) Record {
	t.Helper()
	return Record{Host: vnet.HostID(host), ID: ident.MustNew(tp, digits)}
}

func nb(t *testing.T, host int, rtt time.Duration, digits ...ident.Digit) Neighbor {
	t.Helper()
	return Neighbor{Record: rec(t, host, digits...), RTT: rtt}
}

func TestNewTableValidation(t *testing.T) {
	owner := rec(t, 0, 1, 2, 3)
	if _, err := NewTable(tp, 0, owner); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := NewTable(ident.Params{Digits: 0, Base: 4}, 2, owner); err == nil {
		t.Error("bad params should fail")
	}
	short := Record{ID: ident.ID{}}
	if _, err := NewTable(tp, 2, short); err == nil {
		t.Error("owner with zero ID should fail")
	}
}

func TestTableInsertPlacement(t *testing.T) {
	owner := rec(t, 0, 1, 2, 3)
	table, err := NewTable(tp, 2, owner)
	if err != nil {
		t.Fatal(err)
	}
	// Common prefix 0, digit 2 -> entry (0,2).
	n := nb(t, 1, 5*time.Millisecond, 2, 0, 0)
	if !table.Insert(n) {
		t.Fatal("insert failed")
	}
	if table.Entry(0, 2).Len() != 1 {
		t.Error("neighbor not in (0,2)-entry")
	}
	// Common prefix 1 (both start with 1), digit 0 -> entry (1,0).
	n2 := nb(t, 2, 3*time.Millisecond, 1, 0, 3)
	table.Insert(n2)
	if table.Entry(1, 0).Len() != 1 {
		t.Error("neighbor not in (1,0)-entry")
	}
	// Common prefix 2 -> entry (2, 0).
	n3 := nb(t, 3, 1*time.Millisecond, 1, 2, 0)
	table.Insert(n3)
	if table.Entry(2, 0).Len() != 1 {
		t.Error("neighbor not in (2,0)-entry")
	}
	// Inserting the owner itself is rejected.
	if table.Insert(Neighbor{Record: owner}) {
		t.Error("owner must not be inserted")
	}
	if table.NeighborCount() != 3 {
		t.Errorf("NeighborCount = %d, want 3", table.NeighborCount())
	}
	if !table.Contains(n2.ID) || table.Contains(owner.ID) {
		t.Error("Contains misreports")
	}
}

func TestEntryOrderingAndCap(t *testing.T) {
	owner := rec(t, 0, 0, 0, 0)
	table, err := NewTable(tp, 2, owner)
	if err != nil {
		t.Fatal(err)
	}
	a := nb(t, 1, 30*time.Millisecond, 1, 0, 0)
	b := nb(t, 2, 10*time.Millisecond, 1, 0, 1)
	c := nb(t, 3, 20*time.Millisecond, 1, 0, 2)
	table.Insert(a)
	table.Insert(b)
	e := table.Entry(0, 1)
	if got, _ := e.Primary(nil); !got.ID.Equal(b.ID) {
		t.Errorf("primary = %v, want nearest %v", got.ID, b.ID)
	}
	// c (20ms) replaces a (30ms) under K=2 cap.
	if !table.Insert(c) {
		t.Error("closer neighbor should replace the farthest")
	}
	if e.Len() != 2 {
		t.Fatalf("entry len = %d, want 2", e.Len())
	}
	if table.Contains(a.ID) {
		t.Error("farthest neighbor should have been evicted")
	}
	// A farther neighbor is rejected when full.
	d := nb(t, 4, 40*time.Millisecond, 1, 0, 3)
	if table.Insert(d) {
		t.Error("farther neighbor must not displace closer ones")
	}
	// Duplicate ID refreshes the RTT rather than duplicating.
	b2 := b
	b2.RTT = 25 * time.Millisecond
	if !table.Insert(b2) {
		t.Error("RTT refresh should report a change")
	}
	if e.Len() != 2 {
		t.Errorf("duplicate insert changed entry size to %d", e.Len())
	}
	if got, _ := e.Primary(nil); !got.ID.Equal(c.ID) {
		t.Errorf("after refresh primary = %v, want %v", got.ID, c.ID)
	}
	// Unchanged duplicate reports no change.
	if table.Insert(b2) {
		t.Error("identical reinsert should report no change")
	}
}

func TestPrimarySkipsDeadNeighbors(t *testing.T) {
	owner := rec(t, 0, 0, 0, 0)
	table, _ := NewTable(tp, 3, owner)
	a := nb(t, 1, 1*time.Millisecond, 2, 0, 0)
	b := nb(t, 2, 2*time.Millisecond, 2, 1, 0)
	table.Insert(a)
	table.Insert(b)
	e := table.Entry(0, 2)
	alive := func(id ident.ID) bool { return !id.Equal(a.ID) }
	got, ok := e.Primary(alive)
	if !ok || !got.ID.Equal(b.ID) {
		t.Errorf("Primary skipping dead = %v/%v, want %v", got.ID, ok, b.ID)
	}
	noneAlive := func(ident.ID) bool { return false }
	if _, ok := e.Primary(noneAlive); ok {
		t.Error("Primary with all dead should report false")
	}
}

func TestTableRemove(t *testing.T) {
	owner := rec(t, 0, 0, 0, 0)
	table, _ := NewTable(tp, 2, owner)
	a := nb(t, 1, 1*time.Millisecond, 3, 1, 2)
	table.Insert(a)
	row, col, ok := table.Remove(a.ID)
	if !ok || row != 0 || col != 3 {
		t.Errorf("Remove = (%d,%d,%v), want (0,3,true)", row, col, ok)
	}
	if _, _, ok := table.Remove(a.ID); ok {
		t.Error("double remove should report absent")
	}
	if _, _, ok := table.Remove(owner.ID); ok {
		t.Error("removing the owner should report absent")
	}
}

func TestServerTable(t *testing.T) {
	st, err := NewServerTable(tp, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServerTable(tp, 0, 0); err == nil {
		t.Error("K=0 should fail")
	}
	a := nb(t, 1, 10*time.Millisecond, 1, 0, 0)
	b := nb(t, 2, 5*time.Millisecond, 1, 1, 0)
	c := nb(t, 3, 7*time.Millisecond, 1, 2, 0)
	st.Insert(a)
	st.Insert(b)
	st.Insert(c) // evicts a (10ms) under K=2
	e := st.Entry(1)
	if e.Len() != 2 {
		t.Fatalf("entry len = %d, want 2", e.Len())
	}
	if got, _ := e.Primary(nil); !got.ID.Equal(b.ID) {
		t.Errorf("server primary = %v, want %v", got.ID, b.ID)
	}
	if !st.Remove(b.ID) {
		t.Error("Remove should find b")
	}
	if st.Remove(b.ID) {
		t.Error("double remove should fail")
	}
}

func TestForEachNeighbor(t *testing.T) {
	owner := rec(t, 0, 0, 0, 0)
	table, _ := NewTable(tp, 4, owner)
	table.Insert(nb(t, 1, time.Millisecond, 1, 0, 0))
	table.Insert(nb(t, 2, time.Millisecond, 0, 1, 0))
	table.Insert(nb(t, 3, time.Millisecond, 0, 0, 1))
	seen := 0
	table.ForEachNeighbor(func(row int, col ident.Digit, n Neighbor) {
		seen++
		if n.ID.Digit(row) != col {
			t.Errorf("neighbor %v filed under wrong column %d", n.ID, col)
		}
		if n.ID.CommonPrefixLen(owner.ID) != row {
			t.Errorf("neighbor %v filed under wrong row %d", n.ID, row)
		}
	})
	if seen != 3 {
		t.Errorf("visited %d neighbors, want 3", seen)
	}
}

// TestForwardWalk pins the one statement of routine FORWARD's walk: a
// user at forwarding level l visits exactly the populated entries of
// rows [l, D-1], row by row in column order — never the diagonal, never
// an entry nobody is in, whether its row was never written or was
// emptied again (level D forwards nothing); the key server visits its
// populated level-0 entries.
func TestForwardWalk(t *testing.T) {
	type cell struct {
		row int
		col ident.Digit
	}
	owner := rec(t, 0, 1, 2, 3)
	table, err := NewTable(tp, 2, owner)
	if err != nil {
		t.Fatal(err)
	}
	// Row 1 is never written; (0,3) and (2,2) are written, then emptied.
	for i, digits := range [][]ident.Digit{{0, 1, 1}, {0, 2, 2}, {2, 0, 0}, {3, 3, 3}, {1, 2, 0}, {1, 2, 1}, {1, 2, 2}} {
		table.Insert(nb(t, i+1, time.Duration(i+1)*time.Millisecond, digits...))
	}
	table.Remove(ident.MustNew(tp, []ident.Digit{3, 3, 3}))
	table.Remove(ident.MustNew(tp, []ident.Digit{1, 2, 2}))
	// cellOf names the entry a visit was handed, by where its primary
	// belongs; the entry must be that cell's, whole.
	cellOf := func(row int, e Entry, at func(cell) Entry) cell {
		n, ok := e.Primary(nil)
		if !ok {
			t.Fatalf("visited an empty entry of row %d", row)
		}
		c := cell{row, n.ID.Digit(row)}
		if !slices.Equal(e.Neighbors(), at(c).Neighbors()) {
			t.Errorf("visit of %v handed %v, the entry holds %v", c, e.Neighbors(), at(c).Neighbors())
		}
		return c
	}
	userEntry := func(c cell) Entry { return table.Entry(c.row, c.col) }
	for level := 0; level <= tp.Digits; level++ {
		var want, got []cell
		for row := level; row < tp.Digits; row++ {
			for col := 0; col < tp.Base; col++ {
				if table.Entry(row, col).Len() > 0 {
					want = append(want, cell{row, col})
				}
			}
		}
		if populated := []cell{{0, 0}, {0, 2}, {2, 0}, {2, 1}}; level == 0 && !slices.Equal(want, populated) {
			t.Fatalf("test table's populated entries are %v, meant %v", want, populated)
		}
		table.Forward(level, func(row int, e Entry) { got = append(got, cellOf(row, e, userEntry)) })
		if !slices.Equal(got, want) {
			t.Errorf("level %d: visited %v, populated entries are %v", level, got, want)
		}
		for _, c := range got {
			if c.col == owner.ID.Digit(c.row) {
				t.Errorf("level %d: visited the diagonal entry of row %d", level, c.row)
			}
		}
	}

	st, err := NewServerTable(tp, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Insert(nb(t, 1, time.Millisecond, 0, 1, 1))
	st.Insert(nb(t, 2, time.Millisecond, 3, 0, 0))
	st.Insert(nb(t, 3, time.Millisecond, 2, 0, 0))
	st.Remove(ident.MustNew(tp, []ident.Digit{2, 0, 0}))
	var got []cell
	st.Forward(func(row int, e Entry) {
		got = append(got, cellOf(row, e, func(c cell) Entry { return st.Entry(c.col) }))
	})
	if want := []cell{{0, 0}, {0, 3}}; !slices.Equal(got, want) {
		t.Errorf("server visited %v, want %v", got, want)
	}
}

// TestSparseRowsMatchDenseModel drives a table's deeper rows and a dense
// B×K model of them through the same random inserts and removes, with
// B = 130 so a row's bitmap spans three words: every entry, and what
// Forward visits, must match the model, and no row may hold more than
// its size class beyond the windows it stores (growing by doubling
// would).
func TestSparseRowsMatchDenseModel(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 130}
	rng := rand.New(rand.NewSource(7))
	owner := Record{ID: ident.MustNew(params, []ident.Digit{5, 5, 5})}
	for _, k := range []int{1, 3} {
		table, err := NewTable(params, k, owner)
		if err != nil {
			t.Fatal(err)
		}
		table.ros = newRoster()
		model := make([][]slot, params.Digits)
		for row := 1; row < params.Digits; row++ {
			model[row] = empty(make([]slot, params.Base*k))
		}
		modelEntry := func(row int, col ident.Digit) Entry {
			return Entry{ros: table.ros, slots: model[row][col*k : (col+1)*k]}
		}
		for step := 0; step < 3000; step++ {
			row := 1 + rng.Intn(params.Digits-1)
			digits := []ident.Digit{5, 5, 5}
			for d := row; d < params.Digits; d++ {
				digits[d] = rng.Intn(params.Base)
			}
			digits[row] = (5 + 1 + rng.Intn(params.Base-1)) % params.Base // off the diagonal
			n := Neighbor{Record: Record{ID: ident.MustNew(params, digits)}, RTT: time.Duration(rng.Intn(50))}
			col := digits[row]
			if rng.Intn(3) == 0 {
				_, _, got := table.Remove(n.ID)
				r, held := table.ros.rankOf(n.ID)
				if want := held && modelEntry(row, col).drop(r); got != want {
					t.Fatalf("k=%d step %d: Remove(%v) = %v, model %v", k, step, n.ID, got, want)
				}
				continue
			}
			r := table.ros.assign(n.Record)
			want := modelEntry(row, col).put(r, nanos(n.RTT))
			if got := table.Insert(n); got != want {
				t.Fatalf("k=%d step %d: Insert(%v) = %v, model %v", k, step, n, got, want)
			}
			table.ros.unref(r)
		}
		var visited, populated [][]Neighbor
		table.Forward(1, func(_ int, e Entry) { visited = append(visited, e.Neighbors()) })
		for row := 1; row < params.Digits; row++ {
			for col := range params.Base {
				want := modelEntry(row, col).Neighbors()
				if got := table.Entry(row, col).Neighbors(); !slices.Equal(got, want) {
					t.Fatalf("k=%d: (%d,%d)-entry %v, model %v", k, row, col, got, want)
				}
				if len(want) > 0 {
					populated = append(populated, want)
				}
			}
			if blk := table.rows[row]; cap(blk) > len(blk)*5/4+2 {
				t.Errorf("k=%d: row %d stores %d slots in an array of %d", k, row, len(blk), cap(blk))
			}
		}
		if !slices.EqualFunc(visited, populated, slices.Equal) {
			t.Errorf("k=%d: Forward visited %d entries, %d populated, or out of order", k, len(visited), len(populated))
		}
	}
}

// slotSpike is chaos.spikeFactor, the largest factor a soak scales
// every RTT by (the chaos package imports this one).
const slotSpike = 3

// TestSlotsHoldEveryCommittedRTT: a slot stores an RTT as uint32
// nanoseconds, so every host pair of every committed topology, spiked,
// must stay below 2³² ns (4.29 s), and an RTT outside the range must
// panic where it is stored, not be clamped.
func TestSlotsHoldEveryCommittedRTT(t *testing.T) {
	nets := map[string]func() (vnet.Network, error){
		"gtitm-paper": func() (vnet.Network, error) { return vnet.NewGTITM(vnet.DefaultGTITMConfig(), 4113, 1) },
		"gtitm-soak":  func() (vnet.Network, error) { return vnet.NewGTITM(vnet.SoakGTITMConfig(), 1000, 1) },
		"gtitm-churn": func() (vnet.Network, error) { return vnet.NewGTITM(churnTopology, 4096+1+churnSpare, 1) },
		"planetlab":   func() (vnet.Network, error) { return vnet.NewPlanetLab(vnet.DefaultPlanetLabConfig(), 1) },
	}
	for name, build := range nets {
		net, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var worst time.Duration
		for a := range net.NumHosts() {
			for b := a + 1; b < net.NumHosts(); b++ {
				worst = max(worst, net.RTT(vnet.HostID(a), vnet.HostID(b)))
			}
		}
		t.Logf("%s: largest RTT %v, spiked %v", name, worst, worst*slotSpike)
		if worst*slotSpike > math.MaxUint32 {
			t.Errorf("%s: largest RTT %v × %d does not fit a slot", name, worst, slotSpike)
		}
	}

	owner := rec(t, 0, 1, 2, 3)
	for _, rtt := range []time.Duration{-1, math.MaxUint32 + 1} {
		table, _ := NewTable(tp, 2, owner)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("inserting an RTT of %v did not panic", rtt)
				}
			}()
			table.Insert(nb(t, 1, rtt, 0, 1, 1))
		}()
	}
	table, _ := NewTable(tp, 2, owner)
	table.Insert(nb(t, 1, math.MaxUint32, 0, 1, 1))
	if got := table.Entry(0, 0).Neighbors()[0].RTT; got != math.MaxUint32 {
		t.Errorf("an RTT of 2³²-1 ns reads back as %v", got)
	}
}
