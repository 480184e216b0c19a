package exp

import (
	"fmt"
	"math/rand"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/cluster"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/lkh"
	"tmesh/internal/overlay"
	"tmesh/internal/vnet"
)

// RekeyCostConfig drives Fig. 12: the rekey cost (encryptions per batch
// rekey message) of the modified key tree, the original key tree, and
// the modified tree with the cluster rekeying heuristic, as a function
// of the number of joins J and leaves L processed in one interval.
type RekeyCostConfig struct {
	// N is the initial group size (paper: 1024).
	N int
	// JValues and LValues sweep the grid (paper: 0..1024).
	JValues, LValues []int
	// Runs averages each cell (paper: 20).
	Runs int
	// Assign configures the ID space; zero value = paper defaults.
	Assign assign.Config
	Seed   int64
	// Progress, when non-nil, receives each run's index and wall-clock
	// duration as it completes.
	Progress Progress
}

// RekeyCostCell is one (J, L) grid point.
type RekeyCostCell struct {
	J, L int
	// Modified is the average rekey cost of the modified key tree
	// (Fig. 12 (a)).
	Modified float64
	// Original is the average cost of the WGL degree-4 tree with [32]
	// batch rekeying; Fig. 12 (b) plots Modified - Original.
	Original float64
	// Clustered is the average cost with the cluster heuristic;
	// Fig. 12 (c) plots Clustered - Original.
	Clustered float64
}

// RunRekeyCost executes Fig. 12 and returns one cell per (J, L) pair.
func RunRekeyCost(cfg RekeyCostConfig) ([]RekeyCostCell, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("exp: N must be >= 1, got %d", cfg.N)
	}
	if cfg.Assign.Params == (ident.Params{}) {
		cfg.Assign = assign.DefaultConfig()
	}
	if cfg.Runs == 0 {
		cfg.Runs = 1
	}
	for _, l := range cfg.LValues {
		if l > cfg.N {
			return nil, fmt.Errorf("exp: L=%d exceeds N=%d", l, cfg.N)
		}
	}

	// Each run accumulates into its own cell map; the maps are merged
	// in run order afterwards, so the float additions happen in exactly
	// the sequence a sequential execution would produce.
	perRun := make([]map[[2]int]*RekeyCostCell, cfg.Runs)
	err := forEachUnit(cfg.Runs, cfg.Progress, func(run int) error {
		sums := newCostCells(cfg)
		seed := cfg.Seed + int64(run)*104729
		if err := runRekeyCostOnce(cfg, seed, sums); err != nil {
			return err
		}
		perRun[run] = sums
		return nil
	})
	if err != nil {
		return nil, err
	}

	cells := make([]RekeyCostCell, 0, len(cfg.JValues)*len(cfg.LValues))
	for _, j := range cfg.JValues {
		for _, l := range cfg.LValues {
			c := RekeyCostCell{J: j, L: l}
			for _, sums := range perRun {
				r := sums[[2]int{j, l}]
				c.Modified += r.Modified
				c.Original += r.Original
				c.Clustered += r.Clustered
			}
			c.Modified /= float64(cfg.Runs)
			c.Original /= float64(cfg.Runs)
			c.Clustered /= float64(cfg.Runs)
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// newCostCells allocates one zeroed cell per (J, L) grid point.
func newCostCells(cfg RekeyCostConfig) map[[2]int]*RekeyCostCell {
	sums := make(map[[2]int]*RekeyCostCell, len(cfg.JValues)*len(cfg.LValues))
	for _, j := range cfg.JValues {
		for _, l := range cfg.LValues {
			sums[[2]int{j, l}] = &RekeyCostCell{J: j, L: l}
		}
	}
	return sums
}

// world is the base group state shared by all grid cells of one run.
type costWorld struct {
	cfg      RekeyCostConfig
	net      vnet.Network
	dir      *overlay.Directory
	assigner *assign.Assigner
	baseIDs  []ident.ID
	baseRecs []overlay.Record
	rng      *rand.Rand
	nextHost int
}

func runRekeyCostOnce(cfg RekeyCostConfig, seed int64, sums map[[2]int]*RekeyCostCell) error {
	rng := rand.New(rand.NewSource(seed))
	maxJ := 0
	for _, j := range cfg.JValues {
		if j > maxJ {
			maxJ = j
		}
	}
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), cfg.N+maxJ+1, seed)
	if err != nil {
		return err
	}
	dir, err := overlay.NewDirectory(cfg.Assign.Params, 4, net, 0)
	if err != nil {
		return err
	}
	assigner, err := assign.New(cfg.Assign, dir, rng)
	if err != nil {
		return err
	}
	w := &costWorld{cfg: cfg, net: net, dir: dir, assigner: assigner, rng: rng, nextHost: 1}
	// Initial N joins ("1024 users join the group each at a random
	// time"; only the resulting ID assignment matters for cost).
	for i := 0; i < cfg.N; i++ {
		rec, err := w.joinOne(time.Duration(i) * time.Second)
		if err != nil {
			return err
		}
		w.baseIDs = append(w.baseIDs, rec.ID)
		w.baseRecs = append(w.baseRecs, rec)
	}

	for _, j := range cfg.JValues {
		for _, l := range cfg.LValues {
			mod, orig, clus, err := w.costs(j, l)
			if err != nil {
				return err
			}
			c := sums[[2]int{j, l}]
			c.Modified += mod
			c.Original += orig
			c.Clustered += clus
		}
	}
	return nil
}

// joinOne runs ID assignment for a fresh host and admits it.
func (w *costWorld) joinOne(at time.Duration) (overlay.Record, error) {
	host := vnet.HostID(w.nextHost)
	w.nextHost++
	id, _, err := w.assigner.AssignID(host)
	if err != nil {
		return overlay.Record{}, err
	}
	rec := overlay.Record{Host: host, ID: id, JoinTime: at}
	if err := w.dir.Join(rec); err != nil {
		return overlay.Record{}, err
	}
	return rec, nil
}

// costs measures one grid cell: J joins + L leaves processed in one
// interval, against fresh copies of all three key-tree variants. Joiner
// IDs are assigned against the live directory and rolled back afterwards
// so cells stay independent.
func (w *costWorld) costs(j, l int) (mod, orig, clus float64, err error) {
	// The centralized controller of Section 4.2: pick L distinct
	// leavers and assign J joiner IDs.
	perm := w.rng.Perm(len(w.baseIDs))[:l]
	leavers := make([]ident.ID, l)
	leaverRecs := make([]overlay.Record, l)
	for i, p := range perm {
		leavers[i] = w.baseIDs[p]
		leaverRecs[i] = w.baseRecs[p]
	}
	joiners := make([]overlay.Record, 0, j)
	for i := 0; i < j; i++ {
		rec, err := w.joinOne(time.Duration(10000+i) * time.Second)
		if err != nil {
			return 0, 0, 0, err
		}
		joiners = append(joiners, rec)
	}
	defer func() {
		// Roll the joiners back out of the directory.
		for _, rec := range joiners {
			if e := w.dir.Leave(rec.ID); e != nil && err == nil {
				err = e
			}
		}
		w.nextHost -= len(joiners)
	}()
	joinIDs := make([]ident.ID, len(joiners))
	for i, r := range joiners {
		joinIDs[i] = r.ID
	}

	// Modified key tree (Fig. 12 (a)).
	mtree, err := keytree.New(w.cfg.Assign.Params, []byte("cost"), keytree.Opts{})
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := mtree.Batch(w.baseIDs, nil); err != nil {
		return 0, 0, 0, err
	}
	mmsg, err := mtree.Batch(joinIDs, leavers)
	if err != nil {
		return 0, 0, 0, err
	}

	// Original key tree: full and balanced after the initial joins.
	otree, users, err := lkh.NewFullBalanced(4, w.cfg.N)
	if err != nil {
		return 0, 0, 0, err
	}
	oleave := make([]lkh.UserHandle, l)
	for i, p := range perm {
		oleave[i] = users[p]
	}
	omsg, _, err := otree.Batch(j, oleave)
	if err != nil {
		return 0, 0, 0, err
	}

	// Modified tree + cluster rekeying heuristic (Fig. 12 (c)).
	cm, err := cluster.New(w.cfg.Assign.Params, []byte("cost"), keytree.Opts{})
	if err != nil {
		return 0, 0, 0, err
	}
	for _, rec := range w.baseRecs {
		if err := cm.Join(rec); err != nil {
			return 0, 0, 0, err
		}
	}
	if _, err := cm.Process(); err != nil {
		return 0, 0, 0, err
	}
	for _, rec := range joiners {
		if err := cm.Join(rec); err != nil {
			return 0, 0, 0, err
		}
	}
	for _, rec := range leaverRecs {
		if err := cm.Leave(rec.ID); err != nil {
			return 0, 0, 0, err
		}
	}
	cres, err := cm.Process()
	if err != nil {
		return 0, 0, 0, err
	}
	return float64(mmsg.Cost()), float64(omsg.Cost()), float64(cres.Message.Cost()), nil
}
