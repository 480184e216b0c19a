package grouphost

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"tmesh/internal/chaos"
	"tmesh/internal/ident"
	"tmesh/internal/vnet"
	"tmesh/internal/workload"
)

// soakInterval is the chaos soak's rekey interval, the grid the
// committed schedules are written on.
const soakInterval = 20 * time.Second

// committedSchedules parses the plane-neutral schedules under
// internal/workload/testdata (a saved soak reproducer starts with a
// "# rekeysim" line and replays on its own plane only).
func committedSchedules(t *testing.T) map[string]*workload.Schedule {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "workload", "testdata", "*.sched"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed schedules: %v", err)
	}
	out := make(map[string]*workload.Schedule)
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(string(text), "# rekeysim ") {
			continue
		}
		s, err := workload.ParseSchedule(string(text))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = s
	}
	return out
}

// replayOnTenant steps a tenant the way the soaks batch a schedule: the
// t=0 joins first, then one boundary per soak interval, each through
// chaos.Step, calling observe with the boundary's index after its
// audit. It returns the first error a tenant raised.
func replayOnTenant(t *testing.T, tn chaos.Plane, s *workload.Schedule, observe func(k int)) error {
	t.Helper()
	boundaries := []time.Duration{1}
	for k := time.Duration(1); k <= s.Events[len(s.Events)-1].At/soakInterval+1; k++ {
		boundaries = append(boundaries, k*soakInterval)
	}
	cur := s.Cursor()
	for k, b := range boundaries {
		st, err := chaos.Step(tn, cur.Next(b), b, nil)
		if err != nil {
			return err
		}
		for _, v := range st.Verdicts {
			if v.Line() != "" {
				t.Errorf("boundary %d: %s", k, v.Line())
			}
		}
		observe(k)
	}
	return nil
}

// TestTenantsReplayCommittedSchedules replays every committed schedule on
// a KeyPlane tenant, where a crash is a leave in the tree, and on a
// NetPlane tenant, which has no failure model and must reject a crash.
// Every auditor stays green at every boundary, and each replay checks
// that its corner case happened.
func TestTenantsReplayCommittedSchedules(t *testing.T) {
	schedules := committedSchedules(t)
	for name, s := range schedules {
		t.Run("key/"+name, func(t *testing.T) {
			tn, err := newKeyTenant(s.Hosts, []byte("replay"), nil)
			must(t, err)
			w := tn.World()
			idOf := func(host int) ident.ID { return slotID(t, w.Tree().Params(), host) }
			inTree := func(host int) bool { return w.Tree().Structure().Contains(idOf(host)) }
			roster := func() []ident.ID { return w.Tree().Structure().Members(ident.EmptyPrefix) }
			epoch := func(host int) uint64 {
				path, err := w.Tree().PathKeys(idOf(host))
				must(t, err)
				return path[0].Version
			}
			var observe func(k int)
			switch name {
			case "mass-join-leave.sched":
				var before []ident.ID
				observe = func(k int) {
					if k == 2 {
						in, out := 0, 0
						for h := 0; h < 24; h++ {
							if was, is := slices.ContainsFunc(before, idOf(h).Equal), inTree(h); is && !was {
								in++
							} else if was && !is {
								out++
							}
						}
						if in != 8 || out != 8 || len(roster()) != 16 {
							t.Errorf("mass boundary: %d in, %d out, %d members; want 8, 8, 16", in, out, len(roster()))
						}
					}
					before = roster()
				}
			case "join-leave-same-interval.sched", "pending-joiner-crash.sched":
				observe = func(k int) {
					if inTree(8) || w.Keyring(idOf(8)) != nil {
						t.Errorf("boundary %d: the cancelled joiner entered the tree", k)
					}
				}
			case "rejoin.sched":
				var departed uint64
				observe = func(k int) {
					switch k {
					case 1:
						departed = epoch(3)
					case 3:
						if got := epoch(3); got <= departed {
							t.Errorf("rejoined host 3 holds key epoch %d, not above the departed %d", got, departed)
						}
					}
				}
			default:
				t.Fatalf("%s: no corner-case check", name)
			}
			must(t, replayOnTenant(t, tn, s, observe))
		})

		t.Run("net/"+name, func(t *testing.T) {
			net, err := vnet.NewGTITM(vnet.SoakGTITMConfig(), 1+s.Hosts, 1)
			must(t, err)
			tn, err := newNetTenant("replay", GroupSpec{}, net, 0, 1, nil)
			must(t, err)
			g := tn.(*netTenant).g
			// joinedAt reports when schedule host h, on network host 1+h,
			// joined; ok is false if it is not a member.
			joinedAt := func(h int) (at time.Duration, ok bool) {
				for _, id := range g.Dir().IDs() {
					if r, _ := g.Dir().Record(id); r.Host == vnet.HostID(1+h) {
						return r.JoinTime, true
					}
				}
				return 0, false
			}
			present := func(h int) bool { _, ok := joinedAt(h); return ok }
			err = replayOnTenant(t, tn, s, func(int) {})
			switch name {
			case "pending-joiner-crash.sched":
				if err == nil || !strings.Contains(err.Error(), "no failure model") {
					t.Fatalf("a NetPlane tenant replayed a crash: err = %v", err)
				}
				return
			case "mass-join-leave.sched":
				if g.Size() != 16 || present(0) || !present(23) {
					t.Errorf("after the mass interval: %d members, host 0 present %v, host 23 present %v",
						g.Size(), present(0), present(23))
				}
			case "join-leave-same-interval.sched":
				if g.Size() != 9 || present(8) || g.Tree().Size() != 9 {
					t.Errorf("the cancelled joiner stayed: %d members, %d in the tree", g.Size(), g.Tree().Size())
				}
			case "rejoin.sched":
				if at, ok := joinedAt(3); !ok || at != 42*time.Second {
					t.Errorf("host 3 is not back from 42s: joined at %v, member %v", at, ok)
				}
			}
			must(t, err)
		})
	}
}

// TestKeyTenantMembershipErrors is core.TestSessionMembershipErrors for
// the KeyPlane tenant: a join of a host that is a member, pending or
// keyed, is rejected by name, and a departed host may join again. Past
// the next boundary the rejoiner holds the tree's keys (the coverage
// auditor passes, though it took the rank of a host that left beside
// it) and the host that left for good holds no keyring.
func TestKeyTenantMembershipErrors(t *testing.T) {
	join := func(h int) workload.Event { return workload.Event{Kind: workload.Join, Host: h} }
	leave := func(h int) workload.Event { return workload.Event{Kind: workload.Leave, Victim: h} }
	for _, tc := range []struct {
		name   string
		events []workload.Event // a zero event is a boundary
		err    string
		gone   []int // hosts that must hold no keyring at the end
	}{
		{"duplicate pending join", []workload.Event{join(0), join(1), join(0)}, "schedule host 0, already a member", nil},
		{"duplicate keyed join", []workload.Event{join(0), join(1), {}, join(0)}, "schedule host 0, already a member", nil},
		{"rejoin of departed host", []workload.Event{join(0), join(1), join(2), {}, leave(0), leave(1), join(0), {}}, "", []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn, err := newKeyTenant(8, []byte("dup"), nil)
			must(t, err)
			for _, ev := range tc.events {
				if ev.Kind == 0 {
					_, err = tn.Flush(0)
				} else {
					err = tn.Apply(ev)
				}
				if err != nil {
					break
				}
			}
			switch {
			case tc.err == "" && err != nil:
				t.Fatal(err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("err = %v, want one containing %q", err, tc.err)
			}
			if tc.err != "" {
				return
			}
			verdicts, _ := chaos.Audit(tn.Evidence(), nil)
			for _, v := range verdicts {
				if line := v.Line(); line != "" {
					t.Error(line)
				}
			}
			for _, h := range tc.gone {
				if tn.World().Keyring(slotID(t, tn.World().Tree().Params(), h)) != nil {
					t.Errorf("departed host %d still has a keyring", h)
				}
			}
			if tn.Size() != 2 {
				t.Errorf("%d members, want 2", tn.Size())
			}
		})
	}
}
