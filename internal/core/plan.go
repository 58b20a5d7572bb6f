package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"sledzig/internal/bits"
	"sledzig/internal/wifi"
)

// Plan precomputes everything that is fixed for a (convention, mode,
// ZigBee channel) triple: the per-symbol significant-bit constraints and
// the extra-bit positions that satisfy them. Transmitter and receiver
// derive identical plans from the on-air parameters, which is what makes
// extra-bit removal possible without side channels (paper section IV-G).
type Plan struct {
	Convention wifi.Convention
	Mode       wifi.Mode
	// Channel is the protected ZigBee channel (zero when the plan was
	// built from an explicit subcarrier set).
	Channel ZigBeeChannel
	// Subcarriers are the pinned data subcarriers.
	Subcarriers []int

	// symbolConstraints are the constraints of one OFDM symbol, sorted by
	// mother index.
	symbolConstraints []Constraint

	// mu guards the layout memos: FrameLayout's by symbol count (frames of
	// recurring sizes pay the cluster planning cost once) and MaskedLayout's
	// by packed mask (bounded by the CTC codecs' message alphabets, not the
	// traffic). Layouts are immutable once built and shared freely.
	mu            sync.RWMutex
	layouts       map[int]*FrameLayout
	maskedLayouts map[string]*FrameLayout
}

// NewPlan builds the plan for a protected ZigBee channel using its full
// data-subcarrier window.
func NewPlan(conv wifi.Convention, mode wifi.Mode, ch ZigBeeChannel) (*Plan, error) {
	if !ch.Valid() {
		return nil, fmt.Errorf("core: invalid ZigBee channel %d", int(ch))
	}
	p, err := NewPlanForSubcarriers(conv, mode, ch.DataSubcarriers())
	if err != nil {
		return nil, err
	}
	p.Channel = ch
	return p, nil
}

// NewPlanForSubcarriers builds a plan pinning an explicit set of data
// subcarriers (the Fig. 11 ablation sweeps these).
func NewPlanForSubcarriers(conv wifi.Convention, mode wifi.Mode, subcarriers []int) (*Plan, error) {
	cs, err := SymbolConstraints(conv, mode, subcarriers)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Convention:        conv,
		Mode:              mode,
		Subcarriers:       append([]int(nil), subcarriers...),
		symbolConstraints: cs,
	}
	// Fail fast if even a long frame cannot be planned.
	if _, err := p.FrameLayout(2); err != nil {
		return nil, err
	}
	return p, nil
}

// ExtraBitsPerSymbol returns how many extra bits each OFDM symbol costs:
// one per significant bit (paper Table III).
func (p *Plan) ExtraBitsPerSymbol() int {
	return len(p.symbolConstraints)
}

// EffectiveDataBitsPerSymbol is N_DBPS minus the extra-bit overhead.
func (p *Plan) EffectiveDataBitsPerSymbol() int {
	return p.Mode.DataBitsPerSymbol() - p.ExtraBitsPerSymbol()
}

// ThroughputLossFraction is the paper's Table IV metric: the share of
// encoder input bits spent on extra bits.
func (p *Plan) ThroughputLossFraction() float64 {
	return float64(p.ExtraBitsPerSymbol()) / float64(p.Mode.DataBitsPerSymbol())
}

// Cluster is a maximal run of constrained encoder steps closer than the
// constraint length, solved jointly: Equations lists the pinned outputs,
// Positions the encoder-input bits the solver controls. len(Positions) ==
// len(Equations) and the coefficient matrix is invertible by construction.
type Cluster struct {
	// Equations hold global mother indices and pinned values.
	Equations []Constraint
	// Positions are global encoder-input indices, in solving order.
	Positions []int
}

// FrameLayout returns the global extra-bit positions and solving clusters
// for a frame of nSymbols OFDM symbols. Layouts are memoized per plan and
// shared: the returned value is read-only and must not be modified.
func (p *Plan) FrameLayout(nSymbols int) (*FrameLayout, error) {
	p.mu.RLock()
	layout, ok := p.layouts[nSymbols]
	p.mu.RUnlock()
	if ok {
		metrics().layoutHit.Inc()
		return layout, nil
	}
	metrics().layoutMiss.Inc()
	layout, err := p.computeFrameLayout(nSymbols)
	if err != nil {
		return nil, err
	}
	return storeLayout(&p.mu, &p.layouts, nSymbols, layout), nil
}

// storeLayout memoizes layout under key in *m, created on first use, and
// returns the instance every caller shares. Concurrent first computations
// are identical (the planner is deterministic), so whichever landed first
// wins.
func storeLayout[K comparable](mu *sync.RWMutex, m *map[K]*FrameLayout, key K, layout *FrameLayout) *FrameLayout {
	mu.Lock()
	defer mu.Unlock()
	if first, ok := (*m)[key]; ok {
		return first
	}
	if *m == nil {
		*m = make(map[K]*FrameLayout)
	}
	(*m)[key] = layout
	return layout
}

// computeFrameLayout derives a layout from scratch.
func (p *Plan) computeFrameLayout(nSymbols int) (*FrameLayout, error) {
	return LayoutForConstraints(p.symbolConstraints, nSymbols, 2*p.Mode.DataBitsPerSymbol())
}

// FrameLayout is the frame-wide solving plan.
type FrameLayout struct {
	NumSymbols int
	Clusters   []Cluster
	// Positions lists every extra-bit encoder-input index, ascending.
	Positions []int
}

// newFrameLayout groups the sorted constraints into clusters of steps
// within the encoder memory of each other and selects an invertible set of
// solver-controlled positions per cluster, preferring the paper's
// Algorithm 1 choices. The layout takes ownership of all: each cluster's
// Equations is a window of it, and its Positions a window of the
// frame-wide Positions, so a layout costs a few allocations however many
// clusters it has.
func newFrameLayout(all []Constraint, nSymbols int) (*FrameLayout, error) {
	n := 0
	for i := range all {
		if i == 0 || all[i].Step()-all[i-1].Step() >= wifi.ConstraintLength {
			n++
		}
	}
	clusters := make([]Cluster, 0, n)
	positions := make([]int, len(all))
	var sc clusterScratch
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].Step()-all[j-1].Step() < wifi.ConstraintLength {
			j++
		}
		if err := sc.planCluster(all[i:j], positions[i:j]); err != nil {
			return nil, err
		}
		clusters = append(clusters, Cluster{Equations: all[i:j:j], Positions: positions[i:j:j]})
		i = j
	}
	// A cluster's positions lie in its own step window and the next
	// cluster starts a constraint length later, so the concatenation is
	// strictly ascending.
	for i := 1; i < len(positions); i++ {
		if positions[i] <= positions[i-1] {
			return nil, fmt.Errorf("core: internal error: extra positions %d, %d out of order", positions[i-1], positions[i])
		}
	}
	return &FrameLayout{NumSymbols: nSymbols, Clusters: clusters, Positions: positions}, nil
}

// clusterScratch is planCluster's working storage, reused from one cluster
// to the next while a layout is built.
type clusterScratch struct {
	pref      []int      // candidate positions in preference order
	seen      []bool     // candidate dedup, indexed from the window start
	matrix    []bits.Bit // len(eqs) x len(pref) coefficients, row-major
	pivotCols []int
	usedRow   []bool
}

// planCluster chooses len(eqs) encoder-input positions whose GF(2)
// coefficient matrix against the cluster's equations is invertible and
// writes them, ascending, to positions. Candidate positions are tried in a
// preference order that reproduces the paper's Algorithm 1 (single -> own
// step; twin -> step-1, step-5) whenever that choice is solvable.
func (sc *clusterScratch) planCluster(eqs []Constraint, positions []int) error {
	minStep, maxStep := eqs[0].Step(), eqs[len(eqs)-1].Step()

	// Candidate preference: paper positions first, then every other
	// window position from latest to earliest. Candidates live in the
	// cluster's step window [minStep-(K-1), maxStep], so dedup is a small
	// offset-indexed slice rather than a map.
	candBase := minStep - (wifi.ConstraintLength - 1)
	window := maxStep - candBase + 1
	sc.pref = slices.Grow(sc.pref[:0], window)
	sc.seen = slices.Grow(sc.seen[:0], window)[:window]
	clear(sc.seen)
	addCand := func(p int) {
		if p < 0 || p < candBase || p > maxStep {
			return
		}
		if !sc.seen[p-candBase] {
			sc.seen[p-candBase] = true
			sc.pref = append(sc.pref, p)
		}
	}
	for i := 0; i < len(eqs); {
		step := eqs[i].Step()
		twin := i+1 < len(eqs) && eqs[i+1].Step() == step
		if twin {
			addCand(step - 1)
			addCand(step - 5)
			i += 2
		} else {
			addCand(step)
			i++
		}
	}
	for p := maxStep; p >= minStep-(wifi.ConstraintLength-1); p-- {
		addCand(p)
	}
	pref := sc.pref

	// Coefficient of position p in the equation for mother index m:
	// generator tap at delay step-p.
	coeff := func(eq Constraint, p int) bits.Bit {
		d := eq.Step() - p
		if d < 0 || d >= wifi.ConstraintLength {
			return 0
		}
		g0, g1 := generatorCoeff(d)
		if eq.MotherIndex%2 == 0 {
			return g0
		}
		return g1
	}

	// Gaussian elimination over the E x C candidate matrix, selecting
	// pivot columns in preference order.
	e, w := len(eqs), len(pref)
	sc.matrix = slices.Grow(sc.matrix[:0], e*w)[:e*w]
	row := func(r int) []bits.Bit { return sc.matrix[r*w : (r+1)*w] }
	for r := 0; r < e; r++ {
		for c, p := range pref {
			row(r)[c] = coeff(eqs[r], p)
		}
	}
	sc.pivotCols = slices.Grow(sc.pivotCols[:0], e)
	sc.usedRow = slices.Grow(sc.usedRow[:0], e)[:e]
	clear(sc.usedRow)
	for c := 0; c < w; c++ {
		// Find an unused row with a 1 in this column.
		pivot := -1
		for r := 0; r < e; r++ {
			if !sc.usedRow[r] && row(r)[c] == 1 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		sc.usedRow[pivot] = true
		sc.pivotCols = append(sc.pivotCols, c)
		for r := 0; r < e; r++ {
			if rr := row(r); r != pivot && rr[c] == 1 {
				for cc, b := range row(pivot) {
					rr[cc] ^= b
				}
			}
		}
		if len(sc.pivotCols) == e {
			break
		}
	}
	if len(sc.pivotCols) != e {
		return fmt.Errorf("core: cluster of %d constraints at steps %d..%d is unsolvable: %w", e, minStep, maxStep, ErrConstraintUnsatisfied)
	}
	for i, c := range sc.pivotCols {
		positions[i] = pref[c]
	}
	sort.Ints(positions)
	return nil
}

// LayoutForConstraints builds a frame-wide solving layout from an
// arbitrary per-symbol constraint list and mother-stream stride — the
// generic entry point wider channel formats (e.g. the 40 MHz extension)
// use, bypassing the 20 MHz Plan bookkeeping.
func LayoutForConstraints(symbolConstraints []Constraint, nSymbols, motherPerSymbol int) (*FrameLayout, error) {
	if nSymbols < 1 {
		return nil, fmt.Errorf("core: frame needs at least one symbol, got %d", nSymbols)
	}
	if motherPerSymbol < 2 {
		return nil, fmt.Errorf("core: mother stride %d too small", motherPerSymbol)
	}
	all := make([]Constraint, 0, nSymbols*len(symbolConstraints))
	for s := 0; s < nSymbols; s++ {
		for _, c := range symbolConstraints {
			all = append(all, Constraint{
				MotherIndex: c.MotherIndex + s*motherPerSymbol,
				Value:       c.Value,
			})
		}
	}
	slices.SortFunc(all, byMotherIndex)
	return newFrameLayout(all, nSymbols)
}

func byMotherIndex(a, b Constraint) int { return cmp.Compare(a.MotherIndex, b.MotherIndex) }

// LayoutForGlobalConstraints plans a frame from an already-expanded,
// frame-global constraint list (callers that pin only selected symbols,
// like the CTC energy modulator, build this themselves). The list need
// not be sorted.
func LayoutForGlobalConstraints(all []Constraint, nSymbols int) (*FrameLayout, error) {
	if nSymbols < 1 {
		return nil, fmt.Errorf("core: frame needs at least one symbol, got %d", nSymbols)
	}
	sorted := make([]Constraint, len(all))
	copy(sorted, all)
	slices.SortFunc(sorted, byMotherIndex)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].MotherIndex == sorted[i-1].MotherIndex {
			return nil, fmt.Errorf("core: duplicate constraint at mother index %d", sorted[i].MotherIndex)
		}
	}
	return newFrameLayout(sorted, nSymbols)
}
