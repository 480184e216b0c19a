// The rekey pipeline: the interval path of a Group decomposed into four
// explicit stages —
//
//	mark    (structural batch: prune leaves, insert joins, plan updates)
//	regen   (per-subtree key regeneration + encryption wrapping)
//	deliver (split multicast over the T-mesh)
//	apply   (per-user keyring updates from the delivered encryptions)
//
// mark and regen are keytree.Tree's Mark and Regenerate, and no driver
// calls them directly: every plane queues its joins and leaves in one
// keytree.Pending and ends the interval with Tree.Flush (the experiment
// harness's one-shot batches use Tree.Batch). deliver is split.Rekey
// for a Group and the experiment harness; the chaos soak delivers
// through recovery.DistributeLadder, whose multicast rung splits the
// same way and whose recovery.Outcome (the socket daemon fills the same
// record) says which rung keyed each member. apply is the Applier below
// for a Group, and KeyPlane.apply (further down) on the key plane. The
// two crypto-heavy stages parallelize: regen fans out across level-1
// ID subtrees (Lemma 3 makes them independent rekey units) inside
// keytree.Regenerate, and apply fans out across delivered users (key
// plane: blocks of keyring slots) — both through work.Run. Each
// apply worker unwraps through its own keycrypt.Unwrapper for the one
// call, so a KEK its members share is expanded once per worker while
// every member still opens its own encryptions.
// Determinism contract: with a fixed seed, every stage's output is
// byte-identical at any width.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/memberstate"
	"tmesh/internal/obs"
	"tmesh/internal/split"
	"tmesh/internal/work"
)

// Applier is the final stage: it updates member keyrings from the
// collected deliveries of one interval.
type Applier interface {
	Apply(interval uint64, deliveries []split.Delivery) error
}

// ApplyError aggregates every member keyring failure of one apply
// stage, ordered by user ID, so a multi-user failure reports the same
// text regardless of worker scheduling.
type ApplyError struct {
	// Users and Errs are parallel slices sorted by user-ID key.
	Users []ident.ID
	Errs  []error
}

// Error implements error.
func (e *ApplyError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %d user(s) failed to apply rekey:", len(e.Users))
	for i, u := range e.Users {
		fmt.Fprintf(&b, " [%v: %v]", u, e.Errs[i])
	}
	return b.String()
}

// Unwrap exposes the first (lowest user ID) failure for errors.Is/As.
func (e *ApplyError) Unwrap() error {
	if len(e.Errs) == 0 {
		return nil
	}
	return e.Errs[0]
}

// storeApplier applies deliveries to keyrings held in a sharded member
// store, fanning out across users through work.Run. Users without a
// keyring (non-leaders in cluster mode, or plain-crypto runs) are
// skipped. Each worker's keyrings unwrap through one
// keycrypt.Unwrapper, dropped when Apply returns.
type storeApplier struct {
	store *memberstate.Store
	// limit is work.Run's upper bound on the fan-out (<= 0: none).
	limit int
	// obs, when non-nil, counts applied users and skipped deliveries
	// (workers update the hoisted counters lock-free) and labels each
	// worker's slot with its pprof stage labels, so apply-stage CPU on
	// the shared long-lived helpers attributes to the tenant.
	obs *obs.Registry
}

// NewApplier returns the pipeline's apply stage over a member store,
// usable standalone (benchmarks, alternative drivers) exactly as the
// Group uses it internally. parallelism is an upper bound on the
// fan-out width (values < 1 mean 1, i.e. inline).
func NewApplier(store *memberstate.Store, parallelism int) Applier {
	if parallelism < 1 {
		parallelism = 1
	}
	return &storeApplier{store: store, limit: parallelism}
}

// Apply implements Applier. Deliveries are first grouped per user in
// arrival order — so a user that received several split messages applies
// them in the order the transport delivered them, under exactly one
// worker — then users fan out. All failures are collected and reported
// sorted by user ID (as *ApplyError).
func (a *storeApplier) Apply(interval uint64, deliveries []split.Delivery) error {
	// No per-user slices: users holds each user's first and last
	// delivery, and following chains a delivery to its user's next one.
	type chain struct{ first, last int }
	index := make(map[ident.ID]int, len(deliveries))
	users := make([]chain, 0, len(deliveries))
	following := make([]int, len(deliveries))
	for i, d := range deliveries {
		following[i] = -1
		if u, seen := index[d.To]; seen {
			following[users[u].last] = i
			users[u].last = i
			continue
		}
		index[d.To] = len(users)
		users = append(users, chain{i, i})
	}
	idOf := func(u int) ident.ID { return deliveries[users[u].first].To }

	appliedC := a.obs.Counter("core_apply_users")
	skippedC := a.obs.Counter("core_apply_skipped_users")
	errs := make([]error, len(users))
	applyUser := func(u int, unw *keycrypt.Unwrapper) {
		id := idOf(u)
		kr := a.store.Keyring(id)
		if kr == nil {
			skippedC.Inc()
			return
		}
		appliedC.Inc()
		for i := users[u].first; i >= 0; i = following[i] {
			sub := &keytree.Message{Interval: interval, Encryptions: deliveries[i].Encryptions}
			if _, err := kr.ApplyWith(unw, sub); err != nil {
				errs[u] = err
				return
			}
		}
		if gk, ok := kr.GroupKey(); ok {
			a.store.SetGroupKey(id, gk)
		}
	}

	work.Run(a.limit, len(users), func(_ int, next func() (int, bool)) {
		obs.WithStage(a.obs, "apply", func() {
			unw := keycrypt.NewUnwrapper()
			for {
				i, ok := next()
				if !ok {
					return
				}
				applyUser(i, unw)
			}
		})
	})

	var failed []int
	for i, err := range errs {
		if err != nil {
			failed = append(failed, i)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	sort.Slice(failed, func(x, y int) bool {
		return idOf(failed[x]).Compare(idOf(failed[y])) < 0
	})
	agg := &ApplyError{}
	for _, i := range failed {
		agg.Users = append(agg.Users, idOf(i))
		agg.Errs = append(agg.Errs, errs[i])
	}
	return agg
}

const applyBlock = 256 // ranks a key-plane apply worker claims per cursor step

// apply is the key plane's apply stage (see KeyPlane): instead of
// replaying a transport's per-user deliveries it hands every keyed
// member the rekey message directly, in one pass over the keyring slab.
// Workers claim ranks in blocks of applyBlock, and each member unwraps
// the encryptions keytree.Tree.PathWraps names for its rank — the at
// most D on its own ID path, found through the tree's parent links — so
// apply costs O(members × depth) array hops, with no lookup and no copy
// per member. Each worker unwraps through one keycrypt.Unwrapper for
// the call, keyed by KEK material, so a wrong KEK still fails.
//
// With survivors > 0, every keyed slot is attempted and apply returns
// the number of keys installed. Applying to any number of keyrings but
// survivors is an error; otherwise the error reported is that of the
// failing keyring at the lowest rank, so it does not depend on worker
// scheduling.
func (w *KeyPlane) apply(msg *keytree.Message, survivors int) (int64, error) {
	if msg.Cost() == 0 || survivors == 0 {
		return 0, nil
	}
	width := w.tree.Ranks().Width()
	var (
		mu       sync.Mutex
		total    int64
		applied  int
		failRank = width
		failErr  error
	)
	work.Run(w.limit, (width+applyBlock-1)/applyBlock, func(_ int, next func() (int, bool)) {
		obs.WithStage(w.obs, "apply", func() {
			unw := keycrypt.NewUnwrapper()
			var updated int64
			rings := 0
			firstRank, firstErr := width, error(nil)
			for {
				b, ok := next()
				if !ok {
					break
				}
				for r := b * applyBlock; r < min((b+1)*applyBlock, width); r++ {
					if !w.rings.Keyed(ident.Rank(r)) {
						continue
					}
					rings++
					n, err := w.rings.Apply(unw, msg, ident.Rank(r))
					if err != nil {
						if r < firstRank {
							id, _ := w.tree.Ranks().IDOf(ident.Rank(r))
							firstRank, firstErr = r, fmt.Errorf("member %v: %w", id, err)
						}
						continue
					}
					updated += int64(n)
				}
			}
			mu.Lock()
			total += updated
			applied += rings
			if firstRank < failRank {
				failRank, failErr = firstRank, firstErr
			}
			mu.Unlock()
		})
	})
	if failErr == nil && applied != survivors {
		failErr = fmt.Errorf("applied to %d keyrings, the tree has %d survivors", applied, survivors)
	}
	return total, failErr
}
