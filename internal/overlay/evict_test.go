package overlay

import (
	"math/rand"
	"testing"

	"tmesh/internal/ident"
)

func TestDirectoryAccessors(t *testing.T) {
	d := newDir(t, 3, 20)
	if d.Params() != tp {
		t.Errorf("Params = %+v", d.Params())
	}
	if d.K() != 3 {
		t.Errorf("K = %d", d.K())
	}
	if d.Network() == nil || d.Server() == nil || d.Tree() == nil {
		t.Error("nil accessors")
	}
	if d.Server().Host() != 0 {
		t.Errorf("server host = %d", d.Server().Host())
	}
}

func TestTableAccessors(t *testing.T) {
	owner := rec(t, 0, 1, 2, 3)
	table, err := NewTable(tp, 2, owner)
	if err != nil {
		t.Fatal(err)
	}
	if table.K() != 2 || table.Params() != tp {
		t.Errorf("K/Params = %d/%+v", table.K(), table.Params())
	}
	if table.Owner().ID != owner.ID {
		t.Error("owner mismatch")
	}
}

func TestEvictAndRepairEntry(t *testing.T) {
	d := newDir(t, 2, 40)
	rng := rand.New(rand.NewSource(3))
	recs := joinN(t, d, 25, rng)

	victim := recs[4].ID
	// Evict removes the membership but leaves other tables dirty.
	if err := d.Evict(victim); err != nil {
		t.Fatal(err)
	}
	if err := d.Evict(victim); err == nil {
		t.Error("double evict should fail")
	}
	if _, ok := d.Record(victim); ok {
		t.Error("evicted user still in records")
	}
	if d.Tree().Contains(victim) {
		t.Error("evicted user still in the ID tree")
	}
	// Server table no longer lists the victim.
	for _, n := range d.Server().Entry(victim.Digit(0)).Neighbors() {
		if n.ID.Equal(victim) {
			t.Error("server table still lists the evicted user")
		}
	}
	// Owners repair individually; an owner that does not hold the victim
	// is left alone.
	holders := d.Holders(victim)
	if len(holders) == 0 {
		t.Fatal("no table held the victim; test is vacuous")
	}
	for _, r := range recs {
		if r.ID.Equal(victim) {
			continue
		}
		d.Repair(r.ID, victim, nil)
	}
	if h := d.Holders(victim); len(h) != 0 {
		t.Errorf("%d tables still hold the victim after every repair", len(h))
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatalf("after repairs: %v", err)
	}
	// Repair on an unknown owner is a no-op.
	ghost := ident.MustNew(tp, []ident.Digit{3, 3, 3})
	before := d.MaintenanceMessages()
	d.Repair(ghost, victim, nil)
	if got := d.MaintenanceMessages(); got != before {
		t.Errorf("Repair(ghost) charged %d messages", got-before)
	}
}
