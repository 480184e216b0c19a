package overlay

import (
	"slices"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

var tp = ident.Params{Digits: 3, Base: 4}

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
