package planner

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/oracle"
	"repro/internal/storage"
)

// testTable builds the differential fixture: the road dataset under three
// deliberately unequal bin counts (equal bins would hide transposed-axis
// bugs in the view matrices).
func testTable(t testing.TB, rows int) (*storage.Table, []datacube.Dim) {
	t.Helper()
	tbl := dataset.Roads(7, rows)
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	dims := []datacube.Dim{
		{Name: "x", Lo: lonLo, Hi: lonHi, Bins: 16},
		{Name: "y", Lo: latLo, Hi: latHi, Bins: 12},
		{Name: "z", Lo: altLo, Hi: altHi, Bins: 20},
	}
	return tbl, dims
}

func newHists(dims []datacube.Dim) [][]int64 {
	h := make([][]int64, len(dims))
	for d := range h {
		h[d] = make([]int64, dims[d].Bins)
	}
	return h
}

func compareAnswer(t *testing.T, tag string, wantTotal, gotTotal int64, want, got [][]int64) {
	t.Helper()
	if wantTotal != gotTotal {
		t.Fatalf("%s: total = %d, oracle %d", tag, gotTotal, wantTotal)
	}
	for d := range want {
		for b := range want[d] {
			if want[d][b] != got[d][b] {
				t.Fatalf("%s: hist[%d][%d] = %d, oracle %d", tag, d, b, got[d][b], want[d][b])
			}
		}
	}
}

// dragStep is a template-stable drag snapshot: fixed sub-range filters on
// every dimension except moved, whose quarter-width window slides with
// step.
func dragStep(dims []datacube.Dim, moved, step, steps int) []*datacube.Range {
	filters := make([]*datacube.Range, len(dims))
	for i, d := range dims {
		span := d.Hi - d.Lo
		var r datacube.Range
		if i == moved {
			lo := d.Lo + span*0.75*float64(step%steps)/float64(steps)
			r = datacube.Range{Lo: lo, Hi: lo + span*0.25}
		} else {
			r = datacube.Range{Lo: d.Lo + span*0.2, Hi: d.Lo + span*0.8}
		}
		rr := r
		filters[i] = &rr
	}
	return filters
}

// randomFilters draws a brush snapshot that exercises the edge cases: nil
// (unfiltered) dimensions, full-domain ranges, degenerate points, inverted
// (empty) ranges, and out-of-domain endpoints that must clamp.
func randomFilters(rng *rand.Rand, dims []datacube.Dim) []*datacube.Range {
	filters := make([]*datacube.Range, len(dims))
	for i, d := range dims {
		span := d.Hi - d.Lo
		switch rng.Intn(10) {
		case 0: // unfiltered
			filters[i] = nil
		case 1: // whole domain
			filters[i] = &datacube.Range{Lo: d.Lo, Hi: d.Hi}
		case 2: // inverted: an empty selection zeroes the whole answer
			filters[i] = &datacube.Range{Lo: d.Lo + span*0.7, Hi: d.Lo + span*0.3}
		case 3: // degenerate point
			v := d.Lo + span*rng.Float64()
			filters[i] = &datacube.Range{Lo: v, Hi: v}
		case 4: // spills past the domain edges: clamps
			filters[i] = &datacube.Range{Lo: d.Lo - span, Hi: d.Hi + span}
		default:
			a := d.Lo + span*rng.Float64()
			b := d.Lo + span*rng.Float64()
			if a > b {
				a, b = b, a
			}
			filters[i] = &datacube.Range{Lo: a, Hi: b}
		}
	}
	return filters
}

// TestPlannerDifferential: both structures the planner answers from — the
// prefix cube, and the materialized template index after its swap-in —
// answer brushes bit-identically to the serial oracle at every parallelism
// level, and nothing is forced: brushes that hold no template all count as
// prefix-cube, a held drag counts mat-index once its build has landed, and
// every answer is counted under one of the two.
func TestPlannerDifferential(t *testing.T) {
	tbl, dims := testTable(t, 30000)
	cube, err := datacube.BuildWith(tbl, dims, 0)
	if err != nil {
		t.Fatal(err)
	}
	// New integrates its prefix cube from the dense one when handed no
	// Config.Prefix (TestPlannerBudgetEviction covers the other way round),
	// and refuses when it has neither.
	if _, err := New(tbl, nil, dims, Config{}); err == nil {
		t.Error("New accepted neither a prefix cube nor a dense cube")
	}

	for _, par := range []int{1, 2, 4, 8} {
		for _, want := range []Structure{PrefixCube, MatIndex} {
			t.Run(fmt.Sprintf("%s/p%d", want, par), func(t *testing.T) {
				pl, err := New(tbl, cube, dims, Config{Parallelism: par, HotStreak: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer pl.Close()

				rng := rand.New(rand.NewSource(int64(100*par) + int64(want)))
				hists := newHists(dims)
				session := fmt.Sprintf("s-%v-%d", want, par)
				const steps = 24
				for step := 0; step < steps; step++ {
					// Random brushes whose moved dimension changes every step
					// never hold a template for two queries; the drag holds
					// one, so its index materializes and the back half of the
					// loop runs on it.
					filters, moved := randomFilters(rng, dims), step%len(dims)
					if want == MatIndex {
						filters, moved = dragStep(dims, 0, step, steps), 0
					}
					total, choice, err := pl.Answer(session, moved, filters, hists)
					if err != nil {
						t.Fatal(err)
					}
					wantTotal, wantHists := oracle.Brush(tbl, dims, filters)
					compareAnswer(t, fmt.Sprintf("step %d (%v)", step, choice), wantTotal, total, wantHists, hists)
					if want == MatIndex && step == steps/2 {
						pl.WaitBuilds()
					}
				}
				st := pl.Stats()
				viaPrefix, viaIndex := st.Choices[PrefixCube.String()], st.Choices[MatIndex.String()]
				if len(st.Choices) != 2 || viaPrefix+viaIndex != steps {
					t.Errorf("choices = %v, want %d answers split over prefix-cube and mat-index only", st.Choices, steps)
				}
				if want == PrefixCube {
					if viaPrefix != steps || st.Materializations != 0 {
						t.Errorf("no template held: choices = %v, materializations = %d", st.Choices, st.Materializations)
					}
					return
				}
				if st.Materializations != 1 {
					t.Errorf("materializations = %d, want 1", st.Materializations)
				}
				if after := int64(steps - 1 - steps/2); viaIndex < after {
					t.Errorf("mat-index answered %d, want at least the %d steps after the swap-in", viaIndex, after)
				}
			})
		}
	}
}

// TestPlannerSwapInMidSession: concurrent drag sessions, each racing its own template's background materialization — every
// answer, before, during, and after the swap-in, matches the oracle.
// Run under -race this is the suite's main concurrency proof.
func TestPlannerSwapInMidSession(t *testing.T) {
	tbl, dims := testTable(t, 12000)
	cube, err := datacube.BuildWith(tbl, dims, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(tbl, cube, dims, Config{
		Prefix: datacube.NewPrefix(cube), HotStreak: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	const steps = 40
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for moved := 0; moved < len(dims); moved++ {
		wg.Add(1)
		go func(moved int) {
			defer wg.Done()
			hists := newHists(dims)
			session := fmt.Sprintf("dragger-%d", moved)
			for step := 0; step < steps; step++ {
				filters := dragStep(dims, moved, step, steps)
				total, _, err := pl.Answer(session, moved, filters, hists)
				if err != nil {
					errs <- err
					return
				}
				wantTotal, want := oracle.Brush(tbl, dims, filters)
				if wantTotal != total {
					errs <- fmt.Errorf("moved %d step %d: total %d, oracle %d", moved, step, total, wantTotal)
					return
				}
				for d := range want {
					for b := range want[d] {
						if want[d][b] != hists[d][b] {
							errs <- fmt.Errorf("moved %d step %d: hist[%d][%d] = %d, oracle %d",
								moved, step, d, b, hists[d][b], want[d][b])
							return
						}
					}
				}
			}
		}(moved)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	pl.WaitBuilds()
	st := pl.Stats()
	if st.Materializations == 0 {
		t.Error("no template materialized across three sustained drags")
	}
	if st.IndexCount != st.Materializations-st.Evictions {
		t.Errorf("index accounting: count %d, built %d, evicted %d", st.IndexCount, st.Materializations, st.Evictions)
	}
}

// TestPlannerBudgetEviction: a budget sized for two indexes under four hot
// templates forces evictions; the accounting stays exact and the answers
// stay oracle-identical after the churn.
func TestPlannerBudgetEviction(t *testing.T) {
	tbl, dims := testTable(t, 8000)
	prefix, err := datacube.BuildPrefix(tbl, dims, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One index for these dims costs ~4.9 KB (see ApproxBytes); give the
	// store room for two.
	pl, err := New(tbl, nil, dims, Config{Prefix: prefix, HotStreak: 1, Budget: 10 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	hists := newHists(dims)
	for tpl := 0; tpl < 4; tpl++ {
		session := fmt.Sprintf("tpl-%d", tpl)
		for step := 0; step < 3; step++ {
			// Each template pins a different fixed box on the non-moved dims.
			filters := dragStep(dims, 0, step, 8)
			for i := 1; i < len(dims); i++ {
				span := dims[i].Hi - dims[i].Lo
				filters[i].Lo = dims[i].Lo + span*0.1*float64(tpl)
			}
			total, _, err := pl.Answer(session, 0, filters, hists)
			if err != nil {
				t.Fatal(err)
			}
			wantTotal, want := oracle.Brush(tbl, dims, filters)
			compareAnswer(t, fmt.Sprintf("tpl %d step %d", tpl, step), wantTotal, total, want, hists)
		}
		pl.WaitBuilds()
	}
	st := pl.Stats()
	if st.Materializations != 4 {
		t.Fatalf("materializations = %d, want 4", st.Materializations)
	}
	if st.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2 (four indexes through a two-index budget)", st.Evictions)
	}
	if st.IndexCount != st.Materializations-st.Evictions {
		t.Errorf("index count %d != built %d - evicted %d", st.IndexCount, st.Materializations, st.Evictions)
	}
	if st.IndexBytes < 0 || st.IndexBytes > st.BudgetBytes || st.StoreBytes > st.BudgetBytes {
		t.Errorf("byte accounting out of bounds: index %d, store %d, budget %d",
			st.IndexBytes, st.StoreBytes, st.BudgetBytes)
	}
	// The store keeps answering correctly after the churn.
	filters := dragStep(dims, 0, 5, 8)
	total, _, err := pl.Answer("after", 0, filters, hists)
	if err != nil {
		t.Fatal(err)
	}
	wantTotal, want := oracle.Brush(tbl, dims, filters)
	compareAnswer(t, "post-eviction", wantTotal, total, want, hists)
}

// TestTemplateIndexUnits: the index sizes itself plausibly and answers any
// position of the moved window.
func TestTemplateIndexUnits(t *testing.T) {
	tbl, dims := testTable(t, 5000)
	filters := dragStep(dims, 1, 0, 8)
	lo, hi, ok := TemplateOf(dims, 1, filters)
	if !ok {
		t.Fatal("TemplateOf rejected a valid drag snapshot")
	}
	if lo[1] != 0 || hi[1] != dims[1].Bins-1 {
		t.Fatalf("moved slot not full-range: [%d,%d]", lo[1], hi[1])
	}
	fns, err := datacube.Binners(tbl, dims)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildTemplateIndex(nil, tbl, dims, 1, lo, hi, fns, 2)
	if err != nil {
		t.Fatal(err)
	}
	if idx.ApproxBytes() <= 0 {
		t.Errorf("ApproxBytes = %d", idx.ApproxBytes())
	}
	if idx.Moved() != 1 {
		t.Errorf("Moved = %d", idx.Moved())
	}

	// The moved window itself may vary freely, including to empty.
	hists := newHists(dims)
	empty := dragStep(dims, 1, 0, 8)
	empty[1] = &datacube.Range{Lo: dims[1].Hi, Hi: dims[1].Lo}
	total, err := idx.AnswerInto(empty, hists)
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Errorf("empty moved window: total = %d", total)
	}
	for d := range hists {
		for b, v := range hists[d] {
			if v != 0 {
				t.Fatalf("empty moved window: hist[%d][%d] = %d", d, b, v)
			}
		}
	}

	// TemplateOf rejects malformed input.
	if _, _, ok := TemplateOf(dims, -1, filters); ok {
		t.Error("TemplateOf accepted moved = -1")
	}
	if _, _, ok := TemplateOf(dims, len(dims), filters); ok {
		t.Error("TemplateOf accepted moved past the last dimension")
	}
	if _, _, ok := TemplateOf(dims, 0, filters[:1]); ok {
		t.Error("TemplateOf accepted a short filter slice")
	}
}

// TestBinRangeEdges: the bin arithmetic the planner's templates resolve
// ranges with (datacube's, the one definition) honors the cube family's
// half-open-upper convention at the awkward spots.
func TestBinRangeEdges(t *testing.T) {
	d := datacube.Dim{Name: "v", Lo: 0, Hi: 10, Bins: 10}
	for _, tc := range []struct {
		r      datacube.Range
		lo, hi int
	}{
		{datacube.Range{Lo: 0, Hi: 10}, 0, 9},    // whole domain
		{datacube.Range{Lo: 0, Hi: 5}, 0, 4},     // upper edge on a boundary: exclusive
		{datacube.Range{Lo: 2.5, Hi: 2.5}, 2, 2}, // point
		{datacube.Range{Lo: 7, Hi: 3}, 7, 3},     // inverted: lo > hi marks empty
		{datacube.Range{Lo: -5, Hi: 50}, 0, 9},   // clamps
	} {
		lo, hi := d.BinRange(tc.r)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("BinRange(%v) = [%d,%d], want [%d,%d]", tc.r, lo, hi, tc.lo, tc.hi)
		}
	}
	flat := datacube.Dim{Name: "flat", Lo: 3, Hi: 3, Bins: 5}
	if lo, hi := flat.BinRange(datacube.Range{Lo: 0, Hi: 9}); lo != 0 || hi != 0 {
		t.Errorf("degenerate dim: [%d,%d], want [0,0]", lo, hi)
	}
}

// TestStructureNames: one distinct label per structure — the live two are
// the planner_choice_total series, cross-delta is the name cmd/bench reads.
func TestStructureNames(t *testing.T) {
	want := map[Structure]string{PrefixCube: "prefix-cube", MatIndex: "mat-index", CrossDelta: "cross-delta"}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), name)
		}
	}
	if len(want) != int(numLive)+1 {
		t.Errorf("%d names for %d live structures plus cross-delta", len(want), numLive)
	}
}
