package keytree

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/workload"
)

// wrapPair is an encryption as the minimality check sees it: the ID of
// the key it is under and the ID of the key it carries.
type wrapPair struct{ under, key ident.Prefix }

// checkMinimal restates Section 2.4's batch rule without Tree.Mark: the
// k-nodes regenerated for a batch are exactly the ancestors, root
// included, of every u-node that joined or left which survive in the
// post-batch ID tree, and each new key is wrapped exactly once under
// each of its node's current children. It compares that multiset of
// encryptions with msg's, and checks that each wrapped key is at its
// node's current version.
func checkMinimal(tr *Tree, joins, leaves []ident.ID, msg *Message) error {
	s := tr.Structure()
	want := map[wrapPair]int{}
	regen := map[ident.Prefix]bool{}
	for _, u := range slices.Concat(joins, leaves) {
		for l := 0; l < s.Params().Digits; l++ {
			if v := u.Prefix(l); s.HasNode(v) && !regen[v] {
				regen[v] = true
				s.EachChildDigit(v, func(d ident.Digit) { want[wrapPair{v.Child(d), v}]++ })
			}
		}
	}
	got := map[wrapPair]int{}
	for _, e := range msg.Encryptions {
		got[wrapPair{e.ID, e.KeyID}]++
		if _, version, ok := tr.KeyOf(e.KeyID); ok && version != e.KeyVersion {
			return fmt.Errorf("key %v wrapped at v%d, current v%d", e.KeyID, e.KeyVersion, version)
		}
	}
	for p, n := range got {
		if want[p] != n {
			return fmt.Errorf("%d wraps of %v under %v, want %d", n, p.key, p.under, want[p])
		}
	}
	for p, n := range want {
		if got[p] != n {
			return fmt.Errorf("%d wraps of %v under %v, want %d", got[p], p.key, p.under, n)
		}
	}
	return nil
}

// refinedID is host h on the refined key tree over q, D+1 digits of
// base B: h's first D-1 base-B digits, then its last digit d as the
// pair (d/8, d%8).
func refinedID(q ident.Params, h int) (ident.ID, error) {
	return ident.FromInt(q, h/q.Base*q.Base*q.Base+h%q.Base/8*q.Base+h%8)
}

// minimalShapes are the two key trees the check runs on: the paper's
// over 3x32 IDs and the refined one over 4x32, each with its host map.
var minimalShapes = []struct {
	name   string
	params ident.Params
	id     func(ident.Params, int) (ident.ID, error)
}{
	{"paper-3x32", ident.Params{Digits: 3, Base: 32}, ident.FromInt},
	{"refined-4x32", ident.Params{Digits: 4, Base: 32}, refinedID},
}

// minimalRun flushes each batch of host events through a tree of the
// shape and calls check with the batch the flush applied and its
// message.
func minimalRun(t *testing.T, params ident.Params, id func(ident.Params, int) (ident.ID, error),
	batches [][]workload.Event, check func(tr *Tree, joins, leaves []ident.ID, msg *Message)) {
	t.Helper()
	tr := newTree(t, params)
	var p Pending
	for _, batch := range batches {
		for _, ev := range batch {
			u, err := id(params, ev.Subject())
			if err != nil {
				t.Fatal(err)
			}
			if ev.Kind == workload.Join {
				p.Join(u)
			} else {
				p.Leave(u)
			}
		}
		msg, joins, leaves, err := tr.Flush(&p, 2)
		if err != nil {
			t.Fatal(err)
		}
		check(tr, joins, leaves, msg)
	}
}

// denseChurn is a 2 000-member build-up and six intervals of 40 leaves
// and 40 joins: recycled hosts first (an ID back under a fresh epoch),
// one leaver rejoining in its own batch each interval.
func denseChurn() [][]workload.Event {
	const n, churn = 2000, 40
	rng := rand.New(rand.NewSource(22))
	active := make([]int, n)
	build := make([]workload.Event, n)
	for h := range active {
		active[h] = h
		build[h] = workload.Event{Kind: workload.Join, Host: h}
	}
	batches := [][]workload.Event{build}
	var free []int
	fresh := n
	for iv := 0; iv < 6; iv++ {
		var batch []workload.Event
		var left []int
		for len(left) < churn {
			i := rng.Intn(len(active))
			left = append(left, active[i])
			batch = append(batch, workload.Event{Kind: workload.Leave, Victim: active[i]})
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
		}
		joins := []int{left[0]}
		for len(joins) < churn {
			if len(free) > 0 {
				joins, free = append(joins, free[len(free)-1]), free[:len(free)-1]
			} else {
				joins, fresh = append(joins, fresh), fresh+1
			}
		}
		for _, h := range joins {
			batch = append(batch, workload.Event{Kind: workload.Join, Host: h})
		}
		batches = append(batches, batch)
		active = append(active, joins...)
		free = append(free, left[1:]...)
	}
	return batches
}

// scheduleBatches cuts a committed schedule into the soaks' rekey
// intervals: the t=0 joins, then one batch per 20 s.
func scheduleBatches(t *testing.T, path string) [][]workload.Event {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.ParseSchedule(string(text))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	cur := s.Cursor()
	batches := [][]workload.Event{cur.Next(1)}
	for b := 20 * time.Second; !cur.Done(); b += 20 * time.Second {
		batches = append(batches, cur.Next(b))
	}
	return batches
}

// minimalWorkloads are the dense churn and the committed schedules.
func minimalWorkloads(t *testing.T) map[string][][]workload.Event {
	t.Helper()
	out := map[string][][]workload.Event{"dense-2000": denseChurn()}
	paths, err := filepath.Glob(filepath.Join("..", "workload", "testdata", "*.sched"))
	if err != nil || len(paths) != 4 {
		t.Fatalf("want the four committed schedules, found %v (%v)", paths, err)
	}
	for _, p := range paths {
		out[strings.TrimSuffix(filepath.Base(p), ".sched")] = scheduleBatches(t, p)
	}
	return out
}

// TestRekeyIsMinimal: on both key-tree shapes, over a dense churn and
// every committed schedule, each interval's message is exactly the
// wraps Section 2.4 asks for (checkMinimal).
func TestRekeyIsMinimal(t *testing.T) {
	for name, batches := range minimalWorkloads(t) {
		for _, sh := range minimalShapes {
			t.Run(sh.name+"/"+name, func(t *testing.T) {
				k := 0
				minimalRun(t, sh.params, sh.id, batches, func(tr *Tree, joins, leaves []ident.ID, msg *Message) {
					if err := checkMinimal(tr, joins, leaves, msg); err != nil {
						t.Errorf("interval %d: %v", k, err)
					}
					k++
				})
			})
		}
	}
}

// TestMinimalCheckCatchesOverAndUnderWrapping is the check's mutation
// table: on each shape, a dense-churn interval's message with one extra
// sibling k-node regenerated, with one regenerated ancestor's wraps
// dropped, or with one wrap under a departed u-node, must fail it.
func TestMinimalCheckCatchesOverAndUnderWrapping(t *testing.T) {
	mutations := []struct {
		name string
		edit func(tr *Tree, leaves []ident.ID, encs []keycrypt.Encryption) []keycrypt.Encryption
	}{
		{"extra sibling marked", func(tr *Tree, _ []ident.ID, encs []keycrypt.Encryption) []keycrypt.Encryption {
			s, regen := tr.Structure(), map[ident.Prefix]bool{}
			for _, e := range encs {
				regen[e.KeyID] = true
			}
			for _, e := range encs {
				v := e.KeyID
				if v.Len() == 0 {
					continue
				}
				for _, d := range s.ChildDigits(v.Parent()) {
					if w := v.Parent().Child(d); !regen[w] {
						_, version, _ := tr.KeyOf(w)
						for _, c := range s.ChildDigits(w) {
							encs = append(encs, keycrypt.Encryption{ID: w.Child(c), KeyID: w, KeyVersion: version})
						}
						return encs
					}
				}
			}
			t.Fatal("no unregenerated sibling")
			return nil
		}},
		{"ancestor skipped", func(_ *Tree, _ []ident.ID, encs []keycrypt.Encryption) []keycrypt.Encryption {
			skip := encs[0].KeyID // the deepest k-node regenerated
			return slices.DeleteFunc(encs, func(e keycrypt.Encryption) bool { return e.KeyID == skip })
		}},
		{"wrap under a departed u-node", func(tr *Tree, leaves []ident.ID, encs []keycrypt.Encryption) []keycrypt.Encryption {
			for _, u := range leaves {
				if p := u.Prefix(u.Len() - 1); !tr.Structure().Contains(u) && tr.Structure().HasNode(p) {
					_, version, _ := tr.KeyOf(p)
					return append(encs, keycrypt.Encryption{ID: u.AsPrefix(), KeyID: p, KeyVersion: version})
				}
			}
			t.Fatal("no departed u-node under a surviving k-node")
			return nil
		}},
	}
	batches := denseChurn()[:3]
	for _, sh := range minimalShapes {
		for _, m := range mutations {
			t.Run(sh.name+"/"+m.name, func(t *testing.T) {
				k := 0
				minimalRun(t, sh.params, sh.id, batches, func(tr *Tree, joins, leaves []ident.ID, msg *Message) {
					if k++; k < len(batches) {
						return
					}
					if err := checkMinimal(tr, joins, leaves, msg); err != nil {
						t.Fatalf("the unmutated message fails: %v", err)
					}
					encs := m.edit(tr, leaves, slices.Clone(msg.Encryptions))
					if err := checkMinimal(tr, joins, leaves, &Message{Encryptions: encs}); err == nil || !strings.Contains(err.Error(), " wraps of ") {
						t.Errorf("the mutated message is not caught as a wrap count: %v", err)
					}
				})
			})
		}
	}
}
