package taxonomy

// Answer-structure advisor: the policy half of the selection-aware
// materialization planner (internal/planner). The paper's guideline is
// that latency constraints bind per *interaction class* — a drag issuing
// 60 queries/s tolerates none of the work a cold one-off query can absorb
// — so the right answer structure is a function of the (widget,
// selection-type, cardinality) cell, not a global constant. This file is
// the human-readable decision table; internal/planner's cost model is its
// executable form, and the planner tests assert the two agree on the
// canonical scenarios.

// Canonical answer-structure names, shared by this advisor's decision
// table and the planner's metrics (planner_choice_total{structure=...}).
const (
	StructEngineScan = "engine-scan"
	StructFullScan   = "cross-full"
	StructDeltaScan  = "cross-delta"
	StructDenseCube  = "dense-cube"
	StructPrefixCube = "prefix-cube"
	StructMatIndex   = "mat-index"
)

// SelectionKind classifies how a selection is being manipulated — the
// interaction-class axis of the decision table.
type SelectionKind int

// Selection kinds.
const (
	// SelectionDrag is a brush edge moving a few pixels per frame: the
	// same dimensions filtered query after query, only the predicate
	// window sliding — the hot-template pattern worth materializing for.
	SelectionDrag SelectionKind = iota
	// SelectionJump is a discontinuous filter change (page-wide brush,
	// preset, filter clear): no locality to exploit.
	SelectionJump
	// SelectionCold is a first-touch query with no session history.
	SelectionCold
)

// String names the selection kind.
func (k SelectionKind) String() string {
	switch k {
	case SelectionDrag:
		return "drag"
	case SelectionJump:
		return "jump"
	default:
		return "cold"
	}
}

// StructureQuery describes one (widget, selection-type, cardinality) cell
// plus which structures actually exist for it — the advisor never
// recommends a structure that would first have to be built synchronously.
type StructureQuery struct {
	Widget    string        // "slider", "map", "table", ... (informational)
	Selection SelectionKind // how the selection is moving
	Dims      int           // dimension cardinality of the selection
	Rows      int           // backing record count
	// DeltaFraction is, for drags at value precision, the changed-record
	// fraction per step — crossfilter's delta/full crossover input.
	DeltaFraction float64
	// Available structures.
	HasMatIndex    bool // a materialized per-selection index matches
	HasPrefixCube  bool
	HasDenseCube   bool
	HasSortedIndex bool // crossfilter's per-dimension sorted permutation
}

// StructureAdvice pairs the recommended structure with the rule that
// selected it, and whether the planner should kick off a background
// materialization for this template.
type StructureAdvice struct {
	Structure   string
	Materialize bool // hot drag template without an index: build one
	Reason      string
}

// CrossoverFraction is the delta-vs-full break-even the calibration data
// embeds (full scans run ~4× faster per record than permuted access;
// measured once at 434,874 rows by the retired `cmd/brushbench` (PR 3);
// re-measure with `cmd/bench --trace 1`: `crossfilter.setfilter_us_p50`),
// mirrored by crossfilter.DefaultCrossover.
const CrossoverFraction = 0.25

// AdviseStructure applies the decision table:
//
//	selection   available               → structure
//	drag        mat-index               → mat-index   (O(Σ bins)/step)
//	drag        prefix cube, no index   → prefix-cube (+ materialize)
//	any         prefix cube             → prefix-cube (O(bins·2^(d-1)))
//	any         dense cube only         → dense-cube  (O(filtered cells))
//	drag@value  sorted index, Δ < 0.25  → cross-delta (O(Δ log n))
//	jump@value  or Δ ≥ 0.25             → cross-full  (sequential wins)
//	otherwise                           → engine-scan (always available)
//
// Bin-space structures (cube family, mat-index) outrank value-space scans
// whenever they exist: the serving layer's brush queries are bin-granular,
// so the cube family answers them exactly at cost independent of Rows.
func AdviseStructure(q StructureQuery) StructureAdvice {
	if q.HasMatIndex {
		return StructureAdvice{
			Structure: StructMatIndex,
			Reason:    "a materialized per-selection index answers each drag step in O(Σ bins), independent of dimensionality",
		}
	}
	if q.HasPrefixCube {
		return StructureAdvice{
			Structure:   StructPrefixCube,
			Materialize: q.Selection == SelectionDrag,
			Reason:      "summed-area corners answer bin-space queries in O(bins·2^(d-1)); a sustained drag justifies materializing its template",
		}
	}
	if q.HasDenseCube {
		return StructureAdvice{
			Structure:   StructDenseCube,
			Materialize: q.Selection == SelectionDrag,
			Reason:      "the dense cube walks only the filtered cell box, independent of record count",
		}
	}
	if q.HasSortedIndex && q.Selection == SelectionDrag && q.DeltaFraction < CrossoverFraction {
		return StructureAdvice{
			Structure: StructDeltaScan,
			Reason:    "a small drag delta reconciles O(Δ log n) records through the sorted index",
		}
	}
	if q.HasSortedIndex || q.Rows > 0 {
		if q.Selection != SelectionCold && q.HasSortedIndex {
			return StructureAdvice{
				Structure: StructFullScan,
				Reason:    "past the crossover fraction sequential reconciliation beats permuted access",
			}
		}
	}
	return StructureAdvice{
		Structure: StructEngineScan,
		Reason:    "no precomputed structure exists; the bin-box table scan is always available",
	}
}
