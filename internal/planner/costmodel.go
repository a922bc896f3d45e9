// Package planner is the selection-aware materialization planner: a
// per-structure cost model seeded from a one-time calibration (see
// DefaultModel) and refined online from observed execute latencies,
// choosing the cheapest available answer structure for every brush query,
// plus a hot-template detector that materializes dedicated per-selection
// indexes (matindex.go) for the drag patterns a session keeps re-issuing —
// the Mosaic Selections idea applied to this repo's five answer structures.
//
// The policy surface (which structure a given interaction class should
// ride, and why) lives in internal/taxonomy's advisor; this package is the
// executable form of that table, with the crossover constants replaced by
// linear models.
package planner

import (
	"sync"
	"time"

	"repro/internal/taxonomy"
)

// Structure enumerates the answer structures the planner chooses among.
// The first two exist at the crossfilter layer (value-precision filtering);
// the rest answer the serving layer's bin-space brush queries and are
// interchangeable bit for bit.
type Structure int

// Answer structures, in rough order of construction cost.
const (
	// EngineScan is the bin-box table scan: one pass over the backing
	// table binning every row — the differential oracle, and the only
	// structure that needs no precomputation.
	EngineScan Structure = iota
	// CrossFull is crossfilter's morsel-parallel full reconcile scan.
	CrossFull
	// CrossDelta is crossfilter's sorted-index delta scan (O(Δ log n)).
	CrossDelta
	// DenseCube walks the dense cube's filtered cell box.
	DenseCube
	// PrefixCube differences the summed-area cube's corners.
	PrefixCube
	// MatIndex is a planner-materialized per-selection index: the moved
	// dimension's axis prefix-summed against every view, so one template's
	// drag steps cost O(Σ bins) regardless of dimensionality.
	MatIndex

	numStructures
)

// String names the structure with taxonomy's canonical identifiers, so the
// planner's metrics and the advisor's decision table speak one vocabulary.
func (s Structure) String() string {
	switch s {
	case EngineScan:
		return taxonomy.StructEngineScan
	case CrossFull:
		return taxonomy.StructFullScan
	case CrossDelta:
		return taxonomy.StructDeltaScan
	case DenseCube:
		return taxonomy.StructDenseCube
	case PrefixCube:
		return taxonomy.StructPrefixCube
	case MatIndex:
		return taxonomy.StructMatIndex
	default:
		return "unknown"
	}
}

// Structures returns every structure in declaration order — the stable
// series set for the planner_choice_total exposition.
func Structures() []Structure {
	out := make([]Structure, numStructures)
	for i := range out {
		out[i] = Structure(i)
	}
	return out
}

// Coeff is one structure's linear cost model: predicted latency in
// nanoseconds for a query touching `units` of the structure's work unit
// (rows scanned, records reconciled, cells walked, corner differences).
type Coeff struct {
	FixedNS   float64 // per-query overhead
	PerUnitNS float64 // marginal cost per work unit
}

// Estimate predicts the latency of units of work, in nanoseconds.
func (c Coeff) Estimate(units float64) float64 {
	if units < 0 {
		units = 0
	}
	return c.FixedNS + c.PerUnitNS*units
}

// CostModel predicts per-structure query latency from seeded calibration,
// refined online by an EWMA over observed executions. Safe for concurrent
// use.
type CostModel struct {
	mu     sync.Mutex
	coeffs [numStructures]Coeff
}

// Default per-unit costs, measured once at 434,874 rows by the retired
// `cmd/brushbench` (PR 3); re-measure with `cmd/bench --trace 1`:
// `datacube.prefix_brush_ns_p50`, `crossfilter.setfilter_us_p50`. The
// crossfilter full scan took 2.06 ms (≈4.7 ns/row), the delta scan
// ~19 ns per reconciled record (the 0.25 crossover's other side), the
// prefix cube 572 ns over ~250 corner differences (≈2.3 ns each), and the
// dense cube 35.5 µs over ~24k cell walks (≈1.5 ns each). The raw bin-box
// table scan pays roughly an L2 miss per row across d columns.
const (
	calScanPerRowDimNS = 2.8
	calCrossFullNS     = 4.75
	calCrossDeltaNS    = 19.0
	calDenseCellNS     = 1.5
	calPrefixDiffNS    = 2.3
	calMatIndexAddNS   = 2.3
	calFixedNS         = 150 // per-query overhead shared by the cheap structures
)

// DefaultModel returns the model seeded from the constants above. The
// seeds reproduce the repo's historical heuristics — crossfilter's
// DefaultCrossover falls out as calCrossFull/calCrossDelta = 0.25 — and
// the Observe feedback loop corrects them for the host at hand.
func DefaultModel() *CostModel {
	m := &CostModel{}
	m.coeffs[EngineScan] = Coeff{FixedNS: calFixedNS, PerUnitNS: calScanPerRowDimNS}
	m.coeffs[CrossFull] = Coeff{FixedNS: calFixedNS, PerUnitNS: calCrossFullNS}
	m.coeffs[CrossDelta] = Coeff{FixedNS: calFixedNS, PerUnitNS: calCrossDeltaNS}
	m.coeffs[DenseCube] = Coeff{FixedNS: calFixedNS, PerUnitNS: calDenseCellNS}
	m.coeffs[PrefixCube] = Coeff{FixedNS: calFixedNS, PerUnitNS: calPrefixDiffNS}
	m.coeffs[MatIndex] = Coeff{FixedNS: calFixedNS, PerUnitNS: calMatIndexAddNS}
	return m
}

// Coeffs returns the structure's current coefficients.
func (m *CostModel) Coeffs(s Structure) Coeff {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.coeffs[s]
}

// SetCoeffs pins the structure's coefficients (tests).
func (m *CostModel) SetCoeffs(s Structure, c Coeff) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.coeffs[s] = c
}

// obsAlpha is the EWMA weight of one online observation against the
// accumulated estimate — heavy enough to adapt to the host within tens of
// queries, light enough that one descheduled outlier doesn't flip
// decisions.
const obsAlpha = 0.2

// Observe refines the structure's per-unit cost from one measured
// execution. Only the slope adapts: the fixed overhead is dominated by
// work the planner can't change (allocation, dispatch) and folding jitter
// into it would let tiny queries swing the model wildly.
func (m *CostModel) Observe(s Structure, units float64, d time.Duration) {
	if units <= 0 || d <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	per := (float64(d.Nanoseconds()) - m.coeffs[s].FixedNS) / units
	if per < 0 {
		per = 0
	}
	m.coeffs[s].PerUnitNS = (1-obsAlpha)*m.coeffs[s].PerUnitNS + obsAlpha*per
}

// Estimate predicts the structure's latency for units of work, in
// nanoseconds.
func (m *CostModel) Estimate(s Structure, units float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.coeffs[s].Estimate(units)
}

// Candidate is one available structure with the work units this query
// would cost on it. Callers enumerate only structures that exist — an
// absent index is simply not a candidate, so the model can never select
// it.
type Candidate struct {
	S     Structure
	Units float64
}

// Choose returns the candidate with the lowest predicted latency, and the
// prediction. Ties break toward the earlier candidate. An empty candidate
// list returns (-1, 0).
func (m *CostModel) Choose(cands []Candidate) (Structure, float64) {
	if len(cands) == 0 {
		return -1, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	best, bestNS := cands[0].S, m.coeffs[cands[0].S].Estimate(cands[0].Units)
	for _, c := range cands[1:] {
		if ns := m.coeffs[c.S].Estimate(c.Units); ns < bestNS {
			best, bestNS = c.S, ns
		}
	}
	return best, bestNS
}

// ChooseDelta implements crossfilter.ScanChooser: the delta scan wins when
// reconciling `changed` records is predicted cheaper than a full scan over
// all `total` records. With the default calibration this reproduces
// crossfilter's DefaultCrossover = 0.25 exactly; online observations move
// the break-even to wherever this host's memory system puts it.
func (m *CostModel) ChooseDelta(changed, total int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.coeffs[CrossDelta].Estimate(float64(changed)) <= m.coeffs[CrossFull].Estimate(float64(total))
}
