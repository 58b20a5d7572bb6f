package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
	// head and body are the clusters of symbol 0 and of symbol 1; symbol
	// s > 1 has body's shifted (s-1)·N_DBPS steps (DESIGN.md §5.5).
	head, body []Cluster

	// layout is the plan's one layout, grown to the longest frame
	// requested. mu serializes growth and header creation; reads take no
	// lock.
	mu     sync.Mutex
	layout atomic.Pointer[planLayout]
}

// planLayout is one generation of a plan's layout, immutable once
// published: the clusters and extra-bit positions of its first n
// symbols, and the headers of the lengths requested since it was built.
// A growth publishes a new generation with no headers, so the plan keeps
// one generation's arrays alive.
type planLayout struct {
	n         int
	clusters  []Cluster
	positions []int
	headers   []atomic.Pointer[FrameLayout] // by symbol count, 1..n
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
// subcarriers (the Fig. 11 ablation sweeps these). It refuses a set whose
// clusters would span two symbols, so that the layout could not tile, and
// a set whose two-symbol layout is unsolvable.
func NewPlanForSubcarriers(conv wifi.Convention, mode wifi.Mode, subcarriers []int) (*Plan, error) {
	cs, err := SymbolConstraints(conv, mode, subcarriers)
	if err != nil {
		return nil, err
	}
	nDBPS := mode.DataBitsPerSymbol()
	if n := len(cs); n > 0 {
		if first, last := cs[0].Step(), cs[n-1].Step(); first+nDBPS-last < wifi.ConstraintLength {
			return nil, fmt.Errorf("core: constrained steps %d..%d of a %d-step symbol leave clusters spanning two symbols: %w",
				first, last, nDBPS, ErrConstraintUnsatisfied)
		}
	}
	two, err := LayoutForConstraints(cs, 2, 2*nDBPS)
	if err != nil {
		return nil, err
	}
	// Both symbols group the same shifted constraints into clusters.
	perSym := len(two.Clusters) / 2
	p := &Plan{
		Convention:        conv,
		Mode:              mode,
		Subcarriers:       append([]int(nil), subcarriers...),
		symbolConstraints: cs,
		head:              two.Clusters[:perSym:perSym],
		body:              two.Clusters[perSym:],
	}
	l := &planLayout{n: 2, clusters: two.Clusters, positions: two.Positions, headers: make([]atomic.Pointer[FrameLayout], 3)}
	l.headers[2].Store(two)
	p.layout.Store(l)
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
// for a frame of nSymbols OFDM symbols: a prefix of the plan's one
// layout, behind a header made on the first request for the length. The
// returned value is shared and read-only and must not be modified.
func (p *Plan) FrameLayout(nSymbols int) (*FrameLayout, error) {
	l, err := p.grown(nSymbols)
	if err != nil {
		return nil, err
	}
	if h := l.headers[nSymbols].Load(); h != nil {
		return h, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	l = p.layout.Load()
	h := l.headers[nSymbols].Load()
	if h == nil {
		c, e := nSymbols*len(p.body), nSymbols*len(p.symbolConstraints)
		h = &FrameLayout{NumSymbols: nSymbols, Clusters: l.clusters[:c:c], Positions: l.positions[:e:e]}
		l.headers[nSymbols].Store(h)
	}
	return h, nil
}

// grown returns the plan's layout covering at least n symbols, first
// growing it to n, at most the longest PSDU's symbols, by appending
// shifted copies of body to head. core.layout.cache_hits counts the
// lengths it already covers, cache_misses the growths.
func (p *Plan) grown(n int) (*planLayout, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: frame needs at least one symbol, got %d", n)
	}
	if l := p.layout.Load(); n <= l.n {
		metrics().layoutHit.Inc()
		return l, nil
	}
	longest := wifi.NumDataSymbols(p.Mode, wifi.MaxPSDULength)
	if n > longest {
		return nil, fmt.Errorf("core: %d-symbol frame is longer than the %d symbols of a %d-octet PSDU: %w",
			n, longest, wifi.MaxPSDULength, ErrPayloadSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.layout.Load()
	if n <= old.n {
		metrics().layoutHit.Inc()
		return old, nil
	}
	metrics().layoutMiss.Inc()
	perSym, nDBPS := len(p.symbolConstraints), p.Mode.DataBitsPerSymbol()
	eqs := make([]Constraint, n*perSym)
	pos := make([]int, n*perSym)
	l := &planLayout{
		n:         n,
		clusters:  make([]Cluster, 0, n*len(p.body)),
		positions: pos,
		headers:   make([]atomic.Pointer[FrameLayout], n+1),
	}
	k := 0
	for s := 0; s < n; s++ {
		tile, shift := p.head, 0
		if s > 0 {
			tile, shift = p.body, (s-1)*nDBPS
		}
		for _, cl := range tile {
			start := k
			for i, eq := range cl.Equations {
				eqs[k] = Constraint{MotherIndex: eq.MotherIndex + 2*shift, Value: eq.Value}
				pos[k] = cl.Positions[i] + shift
				k++
			}
			l.clusters = append(l.clusters, Cluster{Equations: eqs[start:k:k], Positions: pos[start:k:k]})
		}
	}
	p.layout.Store(l)
	return l, nil
}

// frameExtras locates one frame's extra bits: the clusters and ascending
// positions of its symbols, an equal share of each per symbol, of which
// only the symbols mask pins count (nil pins all); a frame-wide layout is
// one share. count is the pinned symbols' extra bits, last the position
// of the last (-1: none).
type frameExtras struct {
	clusters    []Cluster
	positions   []int
	symbols     int
	mask        []bool
	count, last int
}

func newFrameExtras(clusters []Cluster, positions []int, symbols int, mask []bool) frameExtras {
	x := frameExtras{clusters: clusters, positions: positions, symbols: symbols, mask: mask, last: -1}
	for s, per := 0, len(positions)/symbols; s < symbols && per > 0; s++ {
		if mask == nil || mask[s] {
			x.count += per
			x.last = positions[(s+1)*per-1]
		}
	}
	return x
}

// symbolClusters returns the clusters of symbol s, none when it is not
// pinned.
func (x *frameExtras) symbolClusters(s int) []Cluster {
	if x.mask != nil && !x.mask[s] {
		return nil
	}
	return x.clusters[s*len(x.clusters)/x.symbols : (s+1)*len(x.clusters)/x.symbols]
}

// position returns the first extra-bit position of a pinned symbol at or
// after entry k of x.positions, and the entry after it; -1 when none
// remains.
func (x *frameExtras) position(k int) (int, int) {
	for ; k < len(x.positions); k++ {
		if x.mask == nil || x.mask[k*x.symbols/len(x.positions)] {
			return x.positions[k], k + 1
		}
	}
	return -1, k
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
	if len(eqs) > maxClusterEquations {
		return fmt.Errorf("core: cluster of %d constraints at steps %d..%d exceeds the solver's %d: %w",
			len(eqs), minStep, maxStep, maxClusterEquations, ErrConstraintUnsatisfied)
	}

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
