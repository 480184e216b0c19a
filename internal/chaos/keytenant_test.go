package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"tmesh/internal/core"
	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/workload"
)

// keyShapes builds a key tenant over 3x32 host IDs on each of the two
// key trees: the paper's, and the refined one NewKeyTenant builds.
var keyShapes = []struct {
	name, shape string
	build       func(ident.Params, []byte, keytree.Opts, int, int) (*KeyTenant, error)
}{
	{"paper", "32x32x32", func(p ident.Params, seed []byte, opts keytree.Opts, limit, sample int) (*KeyTenant, error) {
		w, err := core.NewKeyPlane(p, seed, opts, limit)
		return &KeyTenant{world: w, hosts: p, sample: sample}, err
	}},
	{"refined", "32x32x4x8", NewKeyTenant},
}

// sentTenant is a KeyTenant that keeps each boundary's rekey message;
// its Flush is KeyTenant.Flush.
type sentTenant struct {
	*KeyTenant
	msg *keytree.Message
}

func (t *sentTenant) Flush(time.Duration) (int, error) {
	t.joining = nil
	var err error
	if t.msg, _, _, t.Installed, err = t.world.Rekey(); err != nil {
		return 0, err
	}
	return t.msg.Cost(), nil
}

// keysOf copies a keyring's keys, group key first.
func keysOf(kr *keytree.Keyring) []keycrypt.Key {
	keys := make([]keycrypt.Key, kr.ID().Len()+1)
	for l := range keys {
		keys[l], _ = kr.Key(kr.ID().Prefix(l))
	}
	return keys
}

// opened returns the first encryption of msg one of keys opens.
func opened(keys []keycrypt.Key, msg *keytree.Message) (keycrypt.Encryption, bool) {
	for _, k := range keys {
		u := keycrypt.NewUnwrapper()
		for _, e := range msg.Encryptions {
			if _, err := u.Unwrap(k, e); err == nil {
				return e, true
			}
		}
	}
	return keycrypt.Encryption{}, false
}

// secrecyChurn is 600 members and eight intervals of 12 leaves: one
// leaver rejoins in its own interval, the other joins take hosts
// earlier leaves freed (an ID back under a fresh epoch) before fresh
// ones, and one fresh host joins and leaves between two boundaries.
func secrecyChurn() [][]workload.Event {
	const n, churn = 600, 12
	rng := rand.New(rand.NewSource(35))
	active := make([]int, n)
	build := make([]workload.Event, n)
	for h := range active {
		active[h] = h
		build[h] = workload.Event{Kind: workload.Join, Host: h}
	}
	batches := [][]workload.Event{build}
	var free []int
	fresh := n
	for iv := 0; iv < 8; iv++ {
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
		batch = append(batch, workload.Event{Kind: workload.Join, Host: fresh},
			workload.Event{Kind: workload.Leave, Victim: fresh})
		fresh++
		batches = append(batches, batch)
		active = append(active, joins...)
		free = append(free, left[1:]...)
	}
	return batches
}

// committedBatches cuts each committed schedule under
// internal/workload/testdata into the soaks' rekey intervals: the t=0
// joins, then one batch per 20 s.
func committedBatches(t *testing.T) map[string][][]workload.Event {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "workload", "testdata", "*.sched"))
	if err != nil || len(paths) != 4 {
		t.Fatalf("want the four committed schedules, found %v (%v)", paths, err)
	}
	out := map[string][][]workload.Event{}
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := workload.ParseSchedule(string(text))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		cur := s.Cursor()
		batches := [][]workload.Event{cur.Next(1)}
		for b := 20 * time.Second; !cur.Done(); b += 20 * time.Second {
			batches = append(batches, cur.Next(b))
		}
		out[strings.TrimSuffix(filepath.Base(p), ".sched")] = batches
	}
	return out
}

// TestKeyTenantSecrecy is forward and backward secrecy proved by
// unwrapping, on both key-tree shapes, over a churn with same-interval
// rejoins, ID reuse and cancelled joins, and over every committed
// schedule (the mass join+leave among them). At each boundary a
// departed member's last keyring opens no encryption of the boundary's
// message and does not hold the new group key; a joiner's first
// keyring opens no encryption of the message before it and does not
// hold the group key it replaced; and a host that joined and left
// between two boundaries holds no keyring.
func TestKeyTenantSecrecy(t *testing.T) {
	workloads := committedBatches(t)
	workloads["churn-600"] = secrecyChurn()
	for name, batches := range workloads {
		for _, sh := range keyShapes {
			t.Run(sh.name+"/"+name, func(t *testing.T) {
				params := ident.Params{Digits: 3, Base: 32}
				tn, err := sh.build(params, []byte("secrecy"), keytree.Opts{}, 2, 64)
				if err != nil {
					t.Fatal(err)
				}
				if tn.Shape() != sh.shape {
					t.Fatalf("key tree %s, want %s", tn.Shape(), sh.shape)
				}
				st := &sentTenant{KeyTenant: tn}
				w := tn.World()
				id := func(h int) ident.ID {
					u, err := tn.HostID(h)
					if err != nil {
						t.Fatal(err)
					}
					return u
				}
				var prev *keytree.Message
				departed, joined, cancels := 0, 0, 0
				for k, batch := range batches {
					last := map[int][]keycrypt.Key{} // each keyed leaver's keyring as it leaves
					for _, ev := range batch {
						if ev.Kind == workload.Join {
							continue
						}
						if kr := w.Keyring(id(ev.Victim)); kr != nil {
							last[ev.Victim] = keysOf(kr)
						}
					}
					replaced, hadKey := w.Tree().GroupKey()
					stepped, err := Step(st, batch, time.Duration(k+1), nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range stepped.Verdicts {
						if v.Line() != "" {
							t.Errorf("interval %d: %s", k, v.Line())
						}
					}
					gk, _ := w.Tree().GroupKey()
					for h, keys := range last {
						if e, ok := opened(keys, st.msg); ok {
							t.Errorf("interval %d: departed host %d opens the wrap of %v under %v", k, h, e.KeyID, e.ID)
						}
						if slices.ContainsFunc(keys, gk.Equal) {
							t.Errorf("interval %d: departed host %d holds the new group key", k, h)
						}
						departed++
					}
					for i, ev := range batch {
						if ev.Kind != workload.Join {
							continue
						}
						kr := w.Keyring(id(ev.Host))
						cancelled := slices.ContainsFunc(batch[i+1:], func(l workload.Event) bool {
							return l.Kind != workload.Join && l.Victim == ev.Host
						})
						if cancelled != (kr == nil) {
							t.Errorf("interval %d: host %d joined (cancelled %v) and holds keyring %v", k, ev.Host, cancelled, kr)
						}
						if cancelled {
							cancels++
						}
						if kr == nil || prev == nil {
							continue
						}
						keys := keysOf(kr)
						if e, ok := opened(keys, prev); ok {
							t.Errorf("interval %d: joiner %d opens the wrap of %v under %v before it joined", k, ev.Host, e.KeyID, e.ID)
						}
						if hadKey && slices.ContainsFunc(keys, replaced.Equal) {
							t.Errorf("interval %d: joiner %d holds the group key it replaced", k, ev.Host)
						}
						joined++
					}
					prev = st.msg
				}
				if departed+joined+cancels == 0 || name == "churn-600" && (departed == 0 || joined == 0 || cancels == 0) {
					t.Errorf("checked %d departures, %d joins and %d cancelled joins", departed, joined, cancels)
				}
			})
		}
	}
}

// TestRefinedTreeHalvesTheWraps pins the refinement's gain at
// keyplane_100k's density, full base-32 bottom k-nodes, at N = 10 000:
// the same scale soak on the paper's tree and on the refined one, four
// intervals of 1 % churn. Each interval's encryption count and keys
// installed are pinned on both, the refined tree sends at most half the
// paper's encryptions, and a member installs at most 5 % more keys.
func TestRefinedTreeHalvesTheWraps(t *testing.T) {
	cfg := DefaultScaleConfig(10000)
	cfg.Intervals = 4
	want := map[string][2][]int{ // per interval: cost, keys installed
		"paper":   {{3222, 4994, 5122, 5110}, {22596, 24368, 24496, 24484}},
		"refined": {{1493, 2310, 2318, 2357}, {23288, 25656, 25776, 25804}},
	}
	got := map[string][2][]int{}
	for _, sh := range keyShapes {
		tn, err := sh.build(cfg.Params, keytree.SeedOf(cfg.Seed), keytree.Opts{CapacityHint: cfg.N + cfg.Churn}, cfg.Parallelism, cfg.Verify)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		cfg.Out = &out
		rep, err := runScaleSoak(cfg, tn)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 || rep.Shape != sh.shape {
			t.Fatalf("%s: %s", sh.name, rep)
		}
		var costs, keys []int
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			var iv, of, members, cost, applied int
			if _, err := fmt.Sscanf(line, "interval %d/%d: members=%d cost=%d applied=%d", &iv, &of, &members, &cost, &applied); err != nil {
				t.Fatalf("progress line %q: %v", line, err)
			}
			costs, keys = append(costs, cost), append(keys, applied)
		}
		got[sh.name] = [2][]int{costs, keys}
		if !slices.Equal(costs, want[sh.name][0]) || !slices.Equal(keys, want[sh.name][1]) {
			t.Errorf("%s tree: costs %v and keys installed %v per interval, want %v and %v",
				sh.name, costs, keys, want[sh.name][0], want[sh.name][1])
		}
	}
	sum := func(v []int) (s int) {
		for _, x := range v {
			s += x
		}
		return s
	}
	paper, refined := got["paper"], got["refined"]
	if 2*sum(refined[0]) > sum(paper[0]) {
		t.Errorf("refined tree sends %d encryptions over the churn, more than half the paper's %d", sum(refined[0]), sum(paper[0]))
	}
	if 100*sum(refined[1]) > 105*sum(paper[1]) {
		t.Errorf("refined tree installs %d keys over the churn, more than 5 %% above the paper's %d", sum(refined[1]), sum(paper[1]))
	}
}
