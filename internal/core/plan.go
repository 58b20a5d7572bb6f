package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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
	// tile is the two-symbol layout every frame walks (DESIGN.md §5.5).
	tile *Tile
	// index is the frame index EncodeTo grows, immutable once published:
	// entry n-1 lists the extra bits of n symbols, a prefix of the last
	// entry's Positions. It is nil before the first encode.
	index atomic.Pointer[[]FrameLayout]
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
// subcarriers (the Fig. 11 ablation sweeps these). It refuses a set that
// does not tile (see NewTile).
func NewPlanForSubcarriers(conv wifi.Convention, mode wifi.Mode, subcarriers []int) (*Plan, error) {
	cs, err := SymbolConstraints(conv, mode, subcarriers)
	if err != nil {
		return nil, err
	}
	tile, err := NewTile(cs, mode.DataBitsPerSymbol())
	if err != nil {
		return nil, err
	}
	return &Plan{
		Convention:        conv,
		Mode:              mode,
		Subcarriers:       append([]int(nil), subcarriers...),
		symbolConstraints: cs,
		tile:              tile,
	}, nil
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

// FrameLayout lists the extra bits of a frame of NumSymbols OFDM symbols.
type FrameLayout struct {
	NumSymbols int
	// Positions lists every extra-bit encoder-input index, ascending.
	Positions []int
}

// FrameLayout returns the extra-bit positions of a frame of nSymbols
// OFDM symbols from the plan's frame index, first growing the index to
// nSymbols when it is shorter. The returned value is shared and
// read-only and must not be modified. core.layout.cache_hits counts the
// lengths the index covers, cache_misses its growths.
func (p *Plan) FrameLayout(nSymbols int) (*FrameLayout, error) {
	x, err := p.frame(nSymbols, nil)
	if err != nil {
		return nil, err
	}
	var grown *[]FrameLayout
	for {
		ix := p.index.Load()
		if ix != nil && nSymbols <= len(*ix) {
			metrics().layoutHit.Inc()
			return &(*ix)[nSymbols-1], nil
		}
		if grown == nil {
			positions := make([]int, 0, x.count)
			for pos, w := x.position(walk{}); pos >= 0; pos, w = x.position(w) {
				positions = append(positions, pos)
			}
			layouts := make([]FrameLayout, nSymbols)
			for n := range layouts {
				e := (n + 1) * len(p.symbolConstraints)
				layouts[n] = FrameLayout{NumSymbols: n + 1, Positions: positions[:e:e]}
			}
			grown = &layouts
		}
		// A growth that lost a race retries: indexes only grow.
		if p.index.CompareAndSwap(ix, grown) {
			metrics().layoutMiss.Inc()
			return &(*grown)[nSymbols-1], nil
		}
	}
}

// frame returns the walk of a frame of n symbols on the plan's tile, of
// which mask pins some (nil: all); no PSDU is longer than the symbols of
// wifi.MaxPSDULength octets.
func (p *Plan) frame(n int, mask []bool) (frameExtras, error) {
	if p == nil {
		return frameExtras{}, fmt.Errorf("core: frame needs a plan")
	}
	if n < 1 {
		return frameExtras{}, fmt.Errorf("core: frame needs at least one symbol, got %d", n)
	}
	if longest := wifi.NumDataSymbols(p.Mode, wifi.MaxPSDULength); n > longest {
		return frameExtras{}, fmt.Errorf("core: %d-symbol frame is longer than the %d symbols of a %d-octet PSDU: %w",
			n, longest, wifi.MaxPSDULength, ErrPayloadSize)
	}
	return p.tile.frame(n, mask), nil
}

// Tile is a frame format's extra-bit layout of two OFDM symbols, which
// frames of any length and mask walk: symbol 0 solves the head clusters,
// and each later symbol s the body clusters shifted (s-1)·N_DBPS encoder
// steps. A body cluster may place extra bits in the symbol before its
// equations, which symbol 0 cannot (DESIGN.md §5.5).
type Tile struct {
	head, body []Cluster
	// positions are head's extra-bit positions, then body's, ascending.
	positions []int
	nDBPS     int
}

// NewTile plans the tile of one symbol's constraints cs, sorted by
// mother index, in a format of nDBPS data bits per symbol. It refuses a
// set whose clusters would span two symbols, so that frames could not
// repeat the tile, and a set whose two-symbol layout is unsolvable; both
// errors wrap ErrConstraintUnsatisfied.
func NewTile(cs []Constraint, nDBPS int) (*Tile, error) {
	if n := len(cs); n > 0 {
		if first, last := cs[0].Step(), cs[n-1].Step(); first+nDBPS-last < wifi.ConstraintLength {
			return nil, fmt.Errorf("core: constrained steps %d..%d of a %d-step symbol leave clusters spanning two symbols: %w",
				first, last, nDBPS, ErrConstraintUnsatisfied)
		}
	}
	two, positions, err := LayoutForConstraints(cs, 2, 2*nDBPS)
	if err != nil {
		return nil, err
	}
	// Both symbols group the same shifted constraints into clusters.
	perSym := len(two) / 2
	return &Tile{head: two[:perSym:perSym], body: two[perSym:], positions: positions, nDBPS: nDBPS}, nil
}

// SymbolClusters returns the clusters symbol s of a frame solves, and
// the encoder steps they are shifted by: a cluster's equation at mother
// index m and its extra bit at position p stand at m+2·shift and
// p+shift in the frame.
func (t *Tile) SymbolClusters(s int) (clusters []Cluster, shift int) {
	if s == 0 {
		return t.head, 0
	}
	return t.body, (s - 1) * t.nDBPS
}

// frameExtras walks the clusters and ascending extra-bit positions of a
// frame's symbols on a tile, of which only the symbols mask pins count
// (nil pins all). count is their extra bits, last the position of the
// last (-1: none).
type frameExtras struct {
	tile        *Tile
	symbols     int
	mask        []bool
	count, last int
}

// frame returns the walk of a frame of symbols OFDM symbols, of which
// mask, when not nil, holds len(mask) == symbols entries.
func (t *Tile) frame(symbols int, mask []bool) frameExtras {
	x := frameExtras{tile: t, symbols: symbols, mask: mask, last: -1}
	pinned := max(symbols, 0)
	lastPinned := pinned - 1
	if mask != nil {
		pinned = 0
		for s, on := range mask {
			if on {
				pinned, lastPinned = pinned+1, s
			}
		}
	}
	per := len(t.positions) / 2
	x.count = pinned * per
	if per > 0 && lastPinned >= 0 {
		x.last, _ = x.position(walk{lastPinned, per - 1})
	}
	return x
}

// symbolClusters returns SymbolClusters(s), none when s is not pinned.
func (x *frameExtras) symbolClusters(s int) ([]Cluster, int) {
	if x.mask != nil && !x.mask[s] {
		return nil, 0
	}
	return x.tile.SymbolClusters(s)
}

// walk is where a walk of a frame's extra bits stands: entry i of
// symbol s's share.
type walk struct{ s, i int }

// position returns the extra-bit position at w, or at the first entry of
// the next pinned symbol when w is past its symbol's share or the symbol
// is unpinned, and the walk after it; -1 when none remains.
func (x *frameExtras) position(w walk) (int, walk) {
	per := len(x.tile.positions) / 2
	for ; w.s < x.symbols; w.s, w.i = w.s+1, 0 {
		if w.i < per && (x.mask == nil || x.mask[w.s]) {
			if w.s == 0 {
				return x.tile.positions[w.i], walk{0, w.i + 1}
			}
			return x.tile.positions[per+w.i] + (w.s-1)*x.tile.nDBPS, walk{w.s, w.i + 1}
		}
	}
	return -1, w
}

// planClusters groups the sorted constraints into clusters of steps
// within the encoder memory of each other and selects an invertible set of
// solver-controlled positions per cluster, preferring the paper's
// Algorithm 1 choices. It returns the clusters and every position,
// ascending. The clusters take ownership of all: each cluster's
// Equations is a window of it, and its Positions a window of the
// positions, so a layout costs a few allocations however many clusters
// it has.
func planClusters(all []Constraint) ([]Cluster, []int, error) {
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
			return nil, nil, err
		}
		clusters = append(clusters, Cluster{Equations: all[i:j:j], Positions: positions[i:j:j]})
		i = j
	}
	// A cluster's positions lie in its own step window and the next
	// cluster starts a constraint length later, so the concatenation is
	// strictly ascending.
	for i := 1; i < len(positions); i++ {
		if positions[i] <= positions[i-1] {
			return nil, nil, fmt.Errorf("core: internal error: extra positions %d, %d out of order", positions[i-1], positions[i])
		}
	}
	return clusters, positions, nil
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

// LayoutForConstraints plans the extra bits of a whole frame of nSymbols
// symbols from scratch, from one symbol's constraints and the
// mother-stream stride of a symbol: its clusters in frame order and its
// extra-bit positions, ascending. NewTile plans its two symbols with it,
// and tests hold the frames that walk a tile to it.
func LayoutForConstraints(symbolConstraints []Constraint, nSymbols, motherPerSymbol int) ([]Cluster, []int, error) {
	if nSymbols < 1 {
		return nil, nil, fmt.Errorf("core: frame needs at least one symbol, got %d", nSymbols)
	}
	if motherPerSymbol < 2 {
		return nil, nil, fmt.Errorf("core: mother stride %d too small", motherPerSymbol)
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
	return planClusters(all)
}

func byMotherIndex(a, b Constraint) int { return cmp.Compare(a.MotherIndex, b.MotherIndex) }
