package planner

import (
	"math"
	"testing"
	"time"

	"repro/internal/taxonomy"
)

// TestDefaultModelReproducesCrossover: the seeded calibration embeds
// crossfilter's DefaultCrossover — the delta scan wins exactly when the
// changed fraction is at most calCrossFull/calCrossDelta = 0.25.
func TestDefaultModelReproducesCrossover(t *testing.T) {
	if got := calCrossFullNS / calCrossDeltaNS; got != taxonomy.CrossoverFraction {
		t.Fatalf("seed ratio = %v, want taxonomy.CrossoverFraction = %v", got, taxonomy.CrossoverFraction)
	}
	m := DefaultModel()
	const n = 400000
	for _, tc := range []struct {
		frac  float64
		delta bool
	}{
		{0.01, true}, {0.10, true}, {0.20, true}, {0.249, true},
		{0.251, false}, {0.30, false}, {0.50, false}, {1.0, false},
	} {
		if got := m.ChooseDelta(int(tc.frac*n), n); got != tc.delta {
			t.Errorf("ChooseDelta(%.0f%%) = %v, want %v", 100*tc.frac, got, tc.delta)
		}
	}
}

// TestChooseNeverSelectsAbsent: the model only picks among the candidates
// the caller enumerated — a structure whose index doesn't exist is not a
// candidate and can never be selected, no matter how cheap its
// coefficients claim it is.
func TestChooseNeverSelectsAbsent(t *testing.T) {
	m := DefaultModel()
	// Make the absent structure infinitely attractive.
	m.SetCoeffs(MatIndex, Coeff{})
	if s, _ := m.Choose([]Candidate{{PrefixCube, 200}, {EngineScan, 1e6}}); s != PrefixCube {
		t.Errorf("chose %v without it being a candidate (want prefix-cube)", s)
	}
	// Every non-empty subset of structures: the choice is a member.
	all := Structures()
	for mask := 1; mask < 1<<len(all); mask++ {
		var cands []Candidate
		for i, s := range all {
			if mask&(1<<i) != 0 {
				cands = append(cands, Candidate{s, float64(1000 * (i + 1))})
			}
		}
		got, _ := m.Choose(cands)
		member := false
		for _, c := range cands {
			if c.S == got {
				member = true
			}
		}
		if !member {
			t.Fatalf("mask %b: chose %v outside the candidate set", mask, got)
		}
	}
	if s, ns := m.Choose(nil); s != -1 || ns != 0 {
		t.Errorf("empty candidates = (%v, %v), want (-1, 0)", s, ns)
	}
	// Ties break toward the earlier candidate.
	m.SetCoeffs(DenseCube, Coeff{FixedNS: 100, PerUnitNS: 1})
	m.SetCoeffs(PrefixCube, Coeff{FixedNS: 100, PerUnitNS: 1})
	if s, _ := m.Choose([]Candidate{{DenseCube, 10}, {PrefixCube, 10}}); s != DenseCube {
		t.Errorf("tie broke to %v, want the earlier candidate", s)
	}
}

// TestObserveAdapts: online observations move the break-even to where the
// host actually is — a machine whose permuted access is cheap shifts the
// delta/full crossover well past the seeded 0.25.
func TestObserveAdapts(t *testing.T) {
	m := DefaultModel()
	const n = 400000
	if m.ChooseDelta(n/2, n) {
		t.Fatal("seeded model should pick full at 50%")
	}
	// Observed delta scans at ~2 ns/record (vs the seeded 19).
	fixed := m.Coeffs(CrossDelta).FixedNS
	for i := 0; i < 60; i++ {
		units := 1e5
		m.Observe(CrossDelta, units, time.Duration(fixed+2*units)*time.Nanosecond)
	}
	if per := m.Coeffs(CrossDelta).PerUnitNS; math.Abs(per-2.0) > 0.1 {
		t.Fatalf("EWMA slope = %v, want ~2", per)
	}
	if !m.ChooseDelta(n/2, n) {
		t.Error("adapted model still refuses the delta path at 50%")
	}
	// Degenerate observations are ignored.
	before := m.Coeffs(CrossDelta)
	m.Observe(CrossDelta, 0, time.Millisecond)
	m.Observe(CrossDelta, 100, 0)
	if m.Coeffs(CrossDelta) != before {
		t.Error("zero-unit or zero-duration observation moved the model")
	}
	if est := m.Estimate(CrossDelta, -5); est != before.FixedNS {
		t.Errorf("negative units not clamped: %v", est)
	}
}

// TestStructureNames: the enum speaks taxonomy's vocabulary, one name per
// structure, so planner_choice_total labels join against the advisor's
// decision table.
func TestStructureNames(t *testing.T) {
	want := map[Structure]string{
		EngineScan: taxonomy.StructEngineScan,
		CrossFull:  taxonomy.StructFullScan,
		CrossDelta: taxonomy.StructDeltaScan,
		DenseCube:  taxonomy.StructDenseCube,
		PrefixCube: taxonomy.StructPrefixCube,
		MatIndex:   taxonomy.StructMatIndex,
	}
	seen := map[string]bool{}
	for _, s := range Structures() {
		name := s.String()
		if name != want[s] {
			t.Errorf("%d.String() = %q, want %q", s, name, want[s])
		}
		if seen[name] {
			t.Errorf("duplicate structure name %q", name)
		}
		seen[name] = true
	}
	if len(seen) != int(numStructures) {
		t.Errorf("%d distinct names for %d structures", len(seen), numStructures)
	}
}

// TestAdvisorAgreesWithModel: taxonomy's decision table and the cost
// model's arithmetic pick the same structure on the canonical scenarios —
// the advisor is the human-readable form of the model, not a second
// policy.
func TestAdvisorAgreesWithModel(t *testing.T) {
	m := DefaultModel()
	const (
		rows     = 434874
		nd       = 3
		sumBins  = 60.0         // Σ bins at 20 bins per dimension
		prefUnit = 60*4 + 8     // Σ bins·2^(d-1) + 2^d
		boxCells = 20 * 20 * 20 // unfiltered box
	)
	scanUnits := float64(rows * nd)

	// Drag with a materialized index: both say mat-index.
	adv := taxonomy.AdviseStructure(taxonomy.StructureQuery{
		Selection: taxonomy.SelectionDrag, Dims: nd, Rows: rows,
		HasMatIndex: true, HasPrefixCube: true, HasDenseCube: true, HasSortedIndex: true,
	})
	got, _ := m.Choose([]Candidate{
		{MatIndex, sumBins}, {PrefixCube, prefUnit}, {DenseCube, boxCells * nd}, {EngineScan, scanUnits},
	})
	if adv.Structure != taxonomy.StructMatIndex || got.String() != adv.Structure {
		t.Errorf("drag+index: advisor %q, model %q", adv.Structure, got)
	}

	// Drag without an index: both land on the prefix cube, and the advisor
	// wants a materialization kicked off.
	adv = taxonomy.AdviseStructure(taxonomy.StructureQuery{
		Selection: taxonomy.SelectionDrag, Dims: nd, Rows: rows,
		HasPrefixCube: true, HasDenseCube: true, HasSortedIndex: true,
	})
	got, _ = m.Choose([]Candidate{
		{PrefixCube, prefUnit}, {DenseCube, boxCells * nd}, {EngineScan, scanUnits},
	})
	if adv.Structure != taxonomy.StructPrefixCube || got.String() != adv.Structure || !adv.Materialize {
		t.Errorf("drag no-index: advisor %+v, model %q", adv, got)
	}

	// Value-precision drag, no cubes: the delta fraction decides, and the
	// model's ChooseDelta agrees on both sides of the crossover.
	for _, tc := range []struct {
		frac float64
		want string
	}{
		{0.10, taxonomy.StructDeltaScan},
		{0.40, taxonomy.StructFullScan},
	} {
		adv = taxonomy.AdviseStructure(taxonomy.StructureQuery{
			Selection: taxonomy.SelectionDrag, Dims: nd, Rows: rows,
			HasSortedIndex: true, DeltaFraction: tc.frac,
		})
		if adv.Structure != tc.want {
			t.Errorf("Δ=%.2f: advisor %q, want %q", tc.frac, adv.Structure, tc.want)
		}
		if wantDelta := tc.want == taxonomy.StructDeltaScan; m.ChooseDelta(int(tc.frac*rows), rows) != wantDelta {
			t.Errorf("Δ=%.2f: ChooseDelta disagrees with the advisor", tc.frac)
		}
	}

	// Cold query, nothing built: engine scan — the only structure with no
	// precomputation, so it is always a candidate and always last resort.
	adv = taxonomy.AdviseStructure(taxonomy.StructureQuery{Selection: taxonomy.SelectionCold, Dims: nd, Rows: rows})
	got, _ = m.Choose([]Candidate{{EngineScan, scanUnits}})
	if adv.Structure != taxonomy.StructEngineScan || got != EngineScan {
		t.Errorf("cold: advisor %q, model %q", adv.Structure, got)
	}
}
