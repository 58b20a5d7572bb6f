package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sledzig/internal/wifi"
)

// spelledLayout spells out a frame's extra bits: its clusters in frame
// order, each at the mother indices and positions the frame solves it
// at, and its ascending positions.
type spelledLayout struct {
	n         int
	clusters  []Cluster
	positions []int
}

// hashLayout folds everything a layout spells out into w: its symbol
// count, every cluster's equations and solver positions, and the
// frame-wide position list.
func hashLayout(w io.Writer, l spelledLayout) {
	fmt.Fprintf(w, "n%d c%d|", l.n, len(l.clusters))
	for _, cl := range l.clusters {
		for _, eq := range cl.Equations {
			fmt.Fprintf(w, "%d=%d ", eq.MotherIndex, eq.Value)
		}
		fmt.Fprintf(w, "%v;", cl.Positions)
	}
	fmt.Fprintf(w, "%v\n", l.positions)
}

// layoutString renders everything a layout spells out, as hashLayout does.
func layoutString(l spelledLayout) string {
	var b strings.Builder
	hashLayout(&b, l)
	return b.String()
}

// walked spells out what a frame assembles and strips as it walks its
// tile: the pinned symbols' clusters, shifted, and the positions the walk
// yields.
func walked(x frameExtras) spelledLayout {
	l := spelledLayout{n: x.symbols}
	for s := range x.symbols {
		clusters, shift := x.symbolClusters(s)
		for _, cl := range clusters {
			l.clusters = append(l.clusters, shiftCluster(cl, shift))
		}
	}
	for p, w := x.position(walk{}); p >= 0; p, w = x.position(w) {
		l.positions = append(l.positions, p)
	}
	return l
}

// shiftCluster returns cl moved shift encoder steps later.
func shiftCluster(cl Cluster, shift int) Cluster {
	out := Cluster{Equations: make([]Constraint, len(cl.Equations)), Positions: make([]int, len(cl.Positions))}
	for i, eq := range cl.Equations {
		out.Equations[i] = Constraint{MotherIndex: eq.MotherIndex + 2*shift, Value: eq.Value}
	}
	for i, p := range cl.Positions {
		out.Positions[i] = p + shift
	}
	return out
}

// frameLayout spells out the unmasked frame of n symbols on plan's tile.
func frameLayout(plan *Plan, n int) (spelledLayout, error) {
	x, err := plan.frame(n, nil)
	return walked(x), err
}

// pinnedLayout spells out the masked frame of len(mask) symbols on
// plan's tile.
func pinnedLayout(plan *Plan, mask []bool) (spelledLayout, error) {
	x, err := plan.frame(len(mask), mask)
	return walked(x), err
}

// globalLayout plans a frame from scratch from a frame-global constraint
// list, in any order: what masked frames solved before they walked the
// plan's tile.
func globalLayout(all []Constraint, nSymbols int) (spelledLayout, error) {
	sorted := slices.Clone(all)
	slices.SortFunc(sorted, byMotherIndex)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].MotherIndex == sorted[i-1].MotherIndex {
			return spelledLayout{}, fmt.Errorf("duplicate constraint at mother index %d", sorted[i].MotherIndex)
		}
	}
	clusters, positions, err := planClusters(sorted)
	return spelledLayout{nSymbols, clusters, positions}, err
}

// plannedMaskedLayout plans the frame of len(mask) symbols that mask pins
// from scratch: the plan's constraints on every pinned symbol, clustered
// and solved as one frame-global list.
func plannedMaskedLayout(plan *Plan, mask []bool) (spelledLayout, error) {
	var all []Constraint
	for s, pinned := range mask {
		if !pinned {
			continue
		}
		for _, c := range plan.symbolConstraints {
			all = append(all, Constraint{MotherIndex: c.MotherIndex + s*2*plan.Mode.DataBitsPerSymbol(), Value: c.Value})
		}
	}
	return globalLayout(all, len(mask))
}

// TestLayoutsMatchGolden pins complete multi-symbol layouts — including
// clusters whose solver positions fall in the previous symbol, though
// their equations never do (TestFrameLayoutTilesBySymbol) — for every
// paper mode and channel under both conventions, through the walk of the
// plan's tile, the generic LayoutForConstraints, and the pinned symbols
// a masked frame walks. The single-symbol extra-bit positions
// are also in testdata/vectors.json; this hash covers what those vectors
// cannot: the cluster grouping, equation order and solver choices that
// receivers depend on. Refresh the value only for an intended change to
// the planner.
func TestLayoutsMatchGolden(t *testing.T) {
	const want = uint64(0xdff54028d84e4f28)
	h := fnv.New64a()
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		for _, mode := range wifi.PaperModes() {
			for _, ch := range AllChannels() {
				plan, err := NewPlan(conv, mode, ch)
				if err != nil {
					t.Fatalf("%v %v %v: %v", conv, mode, ch, err)
				}
				for _, n := range []int{1, 2, 5, 33} {
					l, err := frameLayout(plan, n)
					if err != nil {
						t.Fatal(err)
					}
					hashLayout(h, l)
					g, positions, err := LayoutForConstraints(plan.symbolConstraints, n, 2*mode.DataBitsPerSymbol())
					if err != nil {
						t.Fatal(err)
					}
					hashLayout(h, spelledLayout{n, g, positions})
				}
				mask := make([]bool, 9)
				for i := range mask {
					mask[i] = i%3 != 1
				}
				m, err := pinnedLayout(plan, mask)
				if err != nil {
					t.Fatal(err)
				}
				hashLayout(h, m)
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("layout hash %#x, want %#x: the planner's output moved", got, want)
	}
}

// TestFrameLayoutTilesBySymbol pins the property the plan's tile rests
// on, for both conventions and the 12 pinnable modes, on every
// contiguous run of data subcarriers within each channel's window (the
// whole window is CH1-CH4's own plan) and on Fig. 11's larger subsets of
// up to 8 subcarriers, which reach past the window: no cluster of a
// 3-symbol layout planned from scratch has equations in two symbols, and
// the walk of an n-symbol frame is that layout's symbol 0 clusters
// followed by n-1 copies of its symbol 1 clusters, each shifted N_DBPS
// steps per symbol, whose positions the plan's frame index lists for n.
// n is sampled up to the symbol count of the largest PSDU. A cluster may
// place extra bits in the symbol before its equations, which symbol 0
// cannot: the planner never places one before the frame start. So symbol
// 0 may differ from the steady state; DESIGN.md §5.5 records in which
// plans it does.
func TestFrameLayoutTilesBySymbol(t *testing.T) {
	plans, ownHead := 0, 0
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		for mod := wifi.QAM16; mod <= wifi.QAM256; mod++ {
			for rate := wifi.Rate12; rate <= wifi.Rate56; rate++ {
				mode := wifi.Mode{Modulation: mod, CodeRate: rate}
				ns := []int{1, 2, 3, 17, 60, wifi.NumDataSymbols(mode, wifi.MaxPSDULength)}
				for _, ch := range AllChannels() {
					var sets [][]int
					window := ch.DataSubcarriers()
					for lo := range window {
						for hi := lo + 1; hi <= len(window); hi++ {
							sets = append(sets, window[lo:hi])
						}
					}
					for k := len(window) + 1; k <= 8; k++ {
						subs, err := ch.DataSubcarrierSubset(k)
						if err != nil {
							t.Fatal(err)
						}
						sets = append(sets, subs)
					}
					for _, subs := range sets {
						plan, err := NewPlanForSubcarriers(conv, mode, subs)
						if err != nil {
							t.Fatalf("%v %v %v %v: %v", conv, mode, ch, subs, err)
						}
						headDiffers, err := checkTiling(plan, ns)
						if err != nil {
							t.Fatalf("%v %v %v %v: %v", conv, mode, ch, subs, err)
						}
						plans++
						if headDiffers {
							ownHead++
						}
					}
				}
			}
		}
	}
	if plans != 2520 || ownHead != 10 {
		t.Fatalf("%d plans tile, %d with a symbol 0 of their own; DESIGN.md §5.5 records 2520 and 10", plans, ownHead)
	}
}

// checkTiling splits the 3-symbol layout the planner computes from
// scratch for plan's constraints into symbol 0's and symbol 1's clusters
// and checks the walk of plan's tile and its frame index against the
// tiling for each n. It also reports whether symbol 0 is not symbol 1
// shifted back.
func checkTiling(plan *Plan, ns []int) (headDiffers bool, err error) {
	nDBPS := plan.Mode.DataBitsPerSymbol()
	three, _, err := LayoutForConstraints(plan.symbolConstraints, 3, 2*nDBPS)
	if err != nil {
		return false, err
	}
	var head, steady []Cluster
	for _, cl := range three {
		switch clusterSymbol(cl, nDBPS) {
		case -1:
			return false, fmt.Errorf("cluster at steps %d..%d spans a symbol boundary",
				cl.Equations[0].Step(), cl.Equations[len(cl.Equations)-1].Step())
		case 0:
			head = append(head, cl)
		case 1:
			steady = append(steady, cl)
		}
	}
	for _, n := range ns {
		l, err := frameLayout(plan, n)
		if err != nil {
			return false, err
		}
		if want := len(head) + (n-1)*len(steady); len(l.clusters) != want {
			return false, fmt.Errorf("%d-symbol layout has %d clusters, want %d", n, len(l.clusters), want)
		}
		k := 0
		var positions []int
		for sym := 0; sym < n; sym++ {
			tile, shift := head, 0
			if sym > 0 {
				tile, shift = steady, (sym-1)*nDBPS
			}
			for _, want := range tile {
				if !sameShifted(l.clusters[k], want, shift) {
					return false, fmt.Errorf("%d-symbol layout: cluster %d (symbol %d) is not the tile shifted %d steps", n, k, sym, shift)
				}
				positions = append(positions, l.clusters[k].Positions...)
				k++
			}
		}
		ix, err := plan.FrameLayout(n)
		if err != nil {
			return false, err
		}
		if ix.NumSymbols != n || !slices.Equal(ix.Positions, positions) || !slices.Equal(l.positions, positions) {
			return false, fmt.Errorf("%d-symbol frame: the index and the walk do not list the tiling's positions", n)
		}
	}
	headDiffers = len(head) != len(steady)
	for i := 0; !headDiffers && i < len(head); i++ {
		headDiffers = !sameShifted(steady[i], head[i], nDBPS)
	}
	return headDiffers, nil
}

// clusterSymbol returns the symbol all of cl's equations fall in, or -1
// when they straddle a boundary.
func clusterSymbol(cl Cluster, nDBPS int) int {
	sym := cl.Equations[0].Step() / nDBPS
	for _, eq := range cl.Equations {
		if eq.Step()/nDBPS != sym {
			return -1
		}
	}
	return sym
}

// sameShifted reports whether got is want moved shift encoder steps later.
func sameShifted(got, want Cluster, shift int) bool {
	if len(got.Equations) != len(want.Equations) || len(got.Positions) != len(want.Positions) {
		return false
	}
	for i, eq := range want.Equations {
		if got.Equations[i] != (Constraint{MotherIndex: eq.MotherIndex + 2*shift, Value: eq.Value}) {
			return false
		}
	}
	for i, p := range want.Positions {
		if got.Positions[i] != p+shift {
			return false
		}
	}
	return true
}

// growthAllocs returns the allocations one plan makes building its
// frame index to n symbols, averaged over fresh plans.
func growthAllocs(t testing.TB, n int) float64 {
	const runs = 20
	plans := make([]*Plan, runs)
	for i := range plans {
		p, err := NewPlan(wifi.ConventionPaper, wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, CH4)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range plans {
		if _, err := p.FrameLayout(n); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// TestLayoutAllocationsFlat pins the cost of growing a plan's frame
// index: building it to 60 symbols makes as many allocations as building
// it to 3, because the index lists positions and per-length layouts in
// arrays sized once. The averages may differ by a stray runtime
// allocation, never by one per symbol.
func TestLayoutAllocationsFlat(t *testing.T) {
	if short, long := growthAllocs(t, 3), growthAllocs(t, 60); long >= short+1 {
		t.Errorf("growing to 60 symbols: %.1f allocs, to 3 symbols %.1f: growth allocates per symbol", long, short)
	}
}

// BenchmarkFrameLayout builds a fresh plan's frame index to 60 symbols;
// the plan is built with the timer stopped.
func BenchmarkFrameLayout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		plan, err := NewPlan(wifi.ConventionPaper, wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, CH4)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := plan.FrameLayout(60); err != nil {
			b.Fatal(err)
		}
	}
}
