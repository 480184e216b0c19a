package overlay

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

// TestEntryInvariantsQuick: after any random sequence of inserts and
// removes, an entry holds at most K neighbors, in non-decreasing RTT
// order, with no duplicate IDs, and never a neighbor cheaper than an
// evicted one was.
func TestEntryInvariantsQuick(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 4}
	owner := Record{Host: 0, ID: ident.MustNew(params, []ident.Digit{0, 0, 0})}

	prop := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		table, err := NewTable(params, k, owner)
		if err != nil {
			return false
		}
		// All candidates live in the (0,1)-subtree so they share one
		// entry.
		var present []ident.ID
		for step := 0; step < 60; step++ {
			id := ident.MustNew(params, []ident.Digit{1, rng.Intn(4), rng.Intn(4)})
			if rng.Float64() < 0.7 {
				table.Insert(Neighbor{
					Record: Record{Host: vnet.HostID(rng.Intn(50)), ID: id},
					RTT:    time.Duration(rng.Intn(200)) * time.Millisecond,
				})
			} else {
				table.Remove(id)
			}
			_ = present
			entry := table.Entry(0, 1)
			if entry.Len() > k {
				return false
			}
			ns := entry.Neighbors()
			seen := make(map[ident.ID]bool, len(ns))
			for i, n := range ns {
				if seen[n.ID] {
					return false
				}
				seen[n.ID] = true
				if i > 0 && ns[i-1].RTT > n.RTT {
					return false
				}
				if n.ID.Digit(0) != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTablePlacementQuick: any inserted neighbor lands in row
// CommonPrefixLen(owner, n) and column n.ID[row] — and nowhere else.
func TestTablePlacementQuick(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 5}
	owner := Record{Host: 0, ID: ident.MustNew(params, []ident.Digit{2, 2, 2, 2})}
	rng := rand.New(rand.NewSource(9))
	prop := func() bool {
		table, err := NewTable(params, 8, owner)
		if err != nil {
			return false
		}
		digits := make([]ident.Digit, params.Digits)
		for i := range digits {
			digits[i] = rng.Intn(params.Base)
		}
		id := ident.MustNew(params, digits)
		inserted := table.Insert(Neighbor{Record: Record{Host: 1, ID: id}, RTT: time.Millisecond})
		if id.Equal(owner.ID) {
			return !inserted
		}
		if !inserted {
			return false // an empty table must accept any non-owner neighbor
		}
		row := owner.ID.CommonPrefixLen(id)
		col := id.Digit(row)
		found := 0
		var foundRow int
		var foundCol ident.Digit
		table.ForEachNeighbor(func(r int, c ident.Digit, n Neighbor) {
			if n.ID.Equal(id) {
				found++
				foundRow, foundCol = r, c
			}
		})
		return found == 1 && foundRow == row && foundCol == col
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
