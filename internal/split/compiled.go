package split

// Compiled REKEY-MESSAGE-SPLIT: instead of re-running the RelevantTo
// string-prefix test on every encryption at every FORWARD hop, the
// message's split decisions are compiled once per rekey into a lookup
// table over the directory's ID tree. The compiler marks each
// encryption's ID as a bit position in a []uint64 word-set, then a single
// depth-first pass over the tree derives, for every node p, the set of
// encryptions relevant to the subtree at p:
//
//	relevant(p) = path(p) ∪ sub(p)
//	path(c)     = path(p) ∪ exact(p)          (IDs that are proper
//	                                           prefixes of c: Theorem 2's
//	                                           "e.ID is a prefix of w")
//	sub(p)      = exact(p) ∪ hoisted(p) ∪ ⋃ sub(children)
//	                                          ("w is a prefix of e.ID")
//
// exact(p) holds the encryptions whose ID is p itself. hoisted(p) holds
// those whose ID node is absent from the directory tree (membership can
// drift from the key tree under churn); since the trie is prefix-closed, only
// strict ancestors of an absent ID can be related to it, so its bits
// attach at the deepest present ancestor and propagate upward only.
//
// Each relevant-set is materialised eagerly into chunked arenas, so the
// per-hop split is a single map lookup returning a shared slice: zero
// heap allocations in steady state. Results are order-preserving
// subsequences of the input, byte-identical to Filter for every tree
// node, at any compile parallelism. Callers must treat the returned
// slices as read-only — they are shared across hops.

import (
	"math/bits"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/work"
)

// arenaChunk is the granularity, in encryptions, of the bulk
// allocations that back the materialised slices.
const arenaChunk = 1024

// compileTable maps every ID-tree node key to the encryptions relevant to
// its subtree, fanning the per-level-1-subtree walks out through
// work.Run (limit is its upper bound; <= 0 means none). The table's
// contents are a pure function of (tree, items), independent of the
// width.
func compileTable(tree *ident.Tree, items []keycrypt.Encryption, limit int) map[string][]keycrypt.Encryption {
	if tree == nil || tree.Size() == 0 || len(items) == 0 {
		// Nothing to compile; lookups fall back to filtering.
		return make(map[string][]keycrypt.Encryption)
	}
	words := (len(items) + 63) / 64
	// One combined entry per marked node keeps the DFS at a single map
	// lookup per visited node. Word-sets are carved from a shared slab —
	// there is one per distinct encryption ID.
	marks := make(map[string]nodeBits, 64)
	var bitSlab []uint64
	setBit := func(key string, i int, hoist bool) {
		nb := marks[key]
		sel := &nb.exact
		if hoist {
			sel = &nb.hoisted
		}
		if *sel == nil {
			if len(bitSlab) < words {
				bitSlab = make([]uint64, 64*words)
			}
			*sel, bitSlab = bitSlab[:words:words], bitSlab[words:]
		}
		(*sel)[i>>6] |= 1 << (uint(i) & 63)
		marks[key] = nb
	}
	for i, e := range items {
		key := e.ID.Key()
		if tree.HasNode(e.ID) {
			setBit(key, i, false)
			continue
		}
		// Absent ID: hoist to the deepest present ancestor (the root
		// always exists while the tree is non-empty).
		for l := len(key) - 1; l >= 0; l-- {
			if tree.HasNode(ident.PrefixFromKey(key[:l])) {
				setBit(key[:l], i, true)
				break
			}
		}
	}

	// One unit per level-1 subtree, one walker per slot. Slots are
	// dense and below the unit count, so the walker slice is sized by
	// it; how many slots actually ran depends on scheduling, the table's
	// contents do not.
	digits := tree.ChildDigits(ident.EmptyPrefix)
	rootExact := marks[ident.EmptyPrefix.Key()].exact
	width := min(work.Width(), len(digits))
	if limit > 0 {
		width = min(width, limit)
	}
	hint := tree.NodeCount()/width + 8
	wks := make([]*walker, len(digits))
	work.Run(limit, len(digits), func(slot int, next func() (int, bool)) {
		wk := newWalker(tree, items, words, marks, hint)
		wks[slot] = wk
		// Level-1 nodes inherit the root's exact bits on their path: a
		// root-ID encryption is a prefix of everything.
		copyBits(wk.path[1], rootExact)
		for {
			i, ok := next()
			if !ok {
				return
			}
			wk.walk(ident.EmptyPrefix.Child(digits[i]), 1)
		}
	})
	ran := 0
	for _, wk := range wks {
		if wk != nil {
			ran++
		}
	}
	// The slots' key sets are disjoint (distinct level-1 subtrees), so a
	// lone slot's map serves as the table directly; merging only happens
	// when the build actually went parallel.
	slices := wks[0].out
	if ran > 1 {
		slices = make(map[string][]keycrypt.Encryption, tree.NodeCount()+1)
		for _, wk := range wks {
			if wk == nil {
				continue
			}
			for k, v := range wk.out {
				slices[k] = v
			}
		}
	}
	// Every encryption is relevant to the root subtree (the empty
	// prefix is a prefix of every ID), so the root serves the full
	// message without a separate materialisation.
	slices[ident.EmptyPrefix.Key()] = items
	return slices
}

// nodeBits holds the marks attached to one tree node: the items whose
// ID is the node itself (exact) and the items hoisted to it because
// their own ID node is absent from the tree (hoisted).
type nodeBits struct {
	exact   []uint64
	hoisted []uint64
}

// walker carries one goroutine's DFS state: per-depth path/sub word-set
// scratch (reused across the whole walk) and the chunk the relevant
// slices are carved from.
type walker struct {
	tree  *ident.Tree
	items []keycrypt.Encryption
	marks map[string]nodeBits
	path  [][]uint64 // path[d]: IDs that are strict prefixes of the depth-d node
	sub   [][]uint64 // sub[d]: scratch for the depth-d subtree union
	rel   []uint64
	chunk []keycrypt.Encryption // materialisation chunk currently being filled
	out   map[string][]keycrypt.Encryption
}

func newWalker(tree *ident.Tree, items []keycrypt.Encryption, words int, marks map[string]nodeBits, hint int) *walker {
	depths := tree.Params().Digits + 1
	w := &walker{
		tree: tree, items: items, marks: marks,
		path: make([][]uint64, depths),
		sub:  make([][]uint64, depths),
		out:  make(map[string][]keycrypt.Encryption, hint),
	}
	slab := make([]uint64, (2*depths+1)*words)
	for d := 0; d < depths; d++ {
		w.path[d], slab = slab[:words], slab[words:]
		w.sub[d], slab = slab[:words], slab[words:]
	}
	w.rel = slab[:words]
	return w
}

// walk visits the subtree rooted at p (depth == p.Len(), with
// path[depth] already holding p's strict-prefix IDs), materialises p's
// relevant slice, and leaves the subtree union in sub[depth].
func (w *walker) walk(p ident.Prefix, depth int) {
	key := p.Key()
	nb := w.marks[key]
	sub := w.sub[depth]
	copyBits(sub, nb.exact)
	orBits(sub, nb.hoisted)
	if depth < len(w.path)-1 {
		childPath := w.path[depth+1]
		copy(childPath, w.path[depth])
		orBits(childPath, nb.exact)
		w.tree.EachChildDigit(p, func(d ident.Digit) {
			w.walk(p.Child(d), depth+1)
			orBits(sub, w.sub[depth+1])
		})
	}
	copy(w.rel, w.path[depth])
	orBits(w.rel, sub)
	w.out[key] = w.materialize(w.rel)
}

// materialize carves the encryptions selected by the word-set out of the
// walker's chunk, preserving message order. Empty selections yield nil,
// matching Filter's nil-for-empty convention.
func (w *walker) materialize(rel []uint64) []keycrypt.Encryption {
	n := 0
	for _, word := range rel {
		n += bits.OnesCount64(word)
	}
	if n == 0 {
		return nil
	}
	if cap(w.chunk)-len(w.chunk) < n {
		w.chunk = make([]keycrypt.Encryption, 0, max(arenaChunk, n))
	}
	off := len(w.chunk)
	sel := w.chunk[off : off : off+n]
	for wi, word := range rel {
		base := wi << 6
		// Relevant items are usually contiguous in message order (keys
		// regenerate subtree by subtree), so copy whole runs of set
		// bits instead of appending element by element.
		for word != 0 {
			start := bits.TrailingZeros64(word)
			run := bits.TrailingZeros64(^(word >> uint(start)))
			sel = append(sel, w.items[base+start:base+start+run]...)
			if start+run == 64 {
				break
			}
			word &^= 1<<uint(start+run) - 1
		}
	}
	w.chunk = w.chunk[:off+n]
	return sel
}

// copyBits sets dst to src, treating a nil src as all-zero.
func copyBits(dst, src []uint64) {
	if src == nil {
		clear(dst)
		return
	}
	copy(dst, src)
}

// orBits folds src into dst; nil src is a no-op.
func orBits(dst, src []uint64) {
	for i, word := range src {
		dst[i] |= word
	}
}

// Index is a compiled per-encryption splitter for one rekey message
// against one directory snapshot. Build it once per rekey with NewIndex
// and pass Split as the transport's SplitHop: every hop covering a tree
// node present at compile time is answered by a table lookup with zero
// allocations; any other subtree (e.g. a node created by churn after
// compilation) falls back to the legacy Filter scan, which is equally
// correct. Split is safe for concurrent use; the returned slices are
// shared and must be treated as read-only.
type Index struct {
	slices map[string][]keycrypt.Encryption
}

// NewIndex compiles the split decisions of the message's encryptions.
// workers is an upper bound on the compile fan-out (values < 1 mean 1,
// i.e. inline).
func NewIndex(tree *ident.Tree, encs []keycrypt.Encryption, workers int) *Index {
	return &Index{slices: compileTable(tree, encs, max(workers, 1))}
}

// Split returns the encryptions relevant to the subtree — byte-identical
// to Filter(encs, subtree) for any hop payload of the compiled message.
func (ix *Index) Split(encs []keycrypt.Encryption, subtree ident.Prefix) []keycrypt.Encryption {
	if out, ok := ix.slices[subtree.Key()]; ok {
		return out
	}
	return Filter(encs, subtree)
}
