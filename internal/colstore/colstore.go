// Package colstore implements compressed columnar storage with vectorized
// filter kernels — the encoding layer under internal/storage that makes
// 50–100M-row interactive workloads fit in memory and scan at cache
// bandwidth.
//
// Three encodings cover the repo's data shapes:
//
//   - Dict: an order-preserving sorted dictionary of the distinct values
//     (strings, ints, or low-cardinality floats — quantized coordinates,
//     categories) with per-row codes bit-packed at minimal width. Because
//     codes preserve value order, a range predicate over values becomes a
//     code interval found by two binary searches over the dictionary, and
//     the scan never materializes a value.
//   - ForPacked: frame-of-reference bit-packed int64 — value = ref + code,
//     codes packed at the width of (max − min). Range predicates translate
//     to code intervals by exact ceil/floor arithmetic.
//   - Plain: raw float64/int64 passthrough for incompressible data (and
//     NaN-containing floats, which no order-preserving code can represent).
//
// Every encoding satisfies the predicate-kernel contract: FilterRange scans
// rows [r0, r1) directly over the packed words and emits 64-bit-word
// selection bitmaps, building each output word in a register with
// branchless compares. Kernels over disjoint morsel-aligned
// row ranges write disjoint bitmap words (morsel.Size is a multiple of
// 64), so morsel-parallel execution needs no synchronization; the
// differential suite proves every kernel byte-identical to the unpacked
// oracle under -race.
//
// Exactness is load-bearing, not best-effort: Freeze only selects an
// encoding when decoding reproduces the original value bit-for-bit (Dict
// keys on the float's bit pattern, ForPacked refuses magnitudes where
// float64(int) rounds), so encoded scans are proven byte-identical to
// plain scans, never approximately equal.
package colstore

import (
	"math"

	"repro/internal/storage"
)

// Encoding identifies a column's physical representation.
type Encoding uint8

const (
	// Plain is the raw-slice passthrough encoding.
	Plain Encoding = iota
	// Dict is the sorted-dictionary + bit-packed-code encoding.
	Dict
	// ForPacked is frame-of-reference bit-packed int64.
	ForPacked
)

// String returns the encoding's stats name.
func (e Encoding) String() string {
	switch e {
	case Dict:
		return "dict"
	case ForPacked:
		return "for"
	default:
		return "plain"
	}
}

// Column is the encoding-aware column interface: the storage.Encoded read
// surface plus the vectorized predicate kernels. All kernels take closed
// value ranges [lo, hi] (see RangeFromOp for translating strict
// comparisons) and write selection bitmaps; and=false stores the
// selection over [r0, r1), and=true intersects it with dst's current
// contents. r0 must be a multiple of 64 and r1 a multiple of 64 or the
// row count — the morsel alignment the bitmap's word-ownership contract
// relies on. Numeric kernels compare the row's float64 image (exactly
// what the plain oracle compares); NaN bounds select nothing.
type Column interface {
	storage.Encoded
	// Encoding identifies the physical representation.
	Encoding() Encoding
	// Type returns the column's logical storage type.
	Type() storage.Type
	// PlainBytes is the byte footprint of the equivalent unencoded column,
	// the denominator of the compression ratio.
	PlainBytes() int64
	// FilterRange selects rows whose value lies in [lo, hi]. Panics on
	// string columns, which have no numeric order here (same contract as
	// storage.Column.Float).
	FilterRange(lo, hi float64, r0, r1 int, dst *Bitmap, and bool)
}

// Coded is implemented by encodings whose per-row representation is an
// order-preserving small-integer code (Dict over numerics, ForPacked).
// Consumers like crossfilter exploit it to run entirely in code space:
// filter bounds translate once per update, and per-record work is a
// packed-code read plus a table lookup.
type Coded interface {
	Column
	// Codes returns the packed per-row codes (shared, do not modify).
	Codes() *PackedInts
	// CodeSpan returns the maximum code value (codes occupy [0, CodeSpan]).
	CodeSpan() uint64
	// CodeRange maps the closed value range [lo, hi] to the inclusive code
	// interval selecting exactly the rows the plain oracle would select;
	// ok=false means no code's value falls in the range.
	CodeRange(lo, hi float64) (cLo, cHi uint64, ok bool)
	// DecodeFloat returns the float64 image of a code.
	DecodeFloat(code uint64) float64
}

// FloatSlice is implemented by encodings backed by a raw float64 slice
// (the Plain float passthrough); consumers that would otherwise decode a
// full copy borrow the slice instead.
type FloatSlice interface {
	RawFloats() []float64
}

// Of returns the colstore view of a storage column, or ok=false if the
// column is not frozen into a colstore encoding.
func Of(c *storage.Column) (Column, bool) {
	if c == nil || c.Enc == nil {
		return nil, false
	}
	col, ok := c.Enc.(Column)
	return col, ok
}

// ViewOf returns the colstore form every scan reads c through: the frozen
// encoding when c has one, otherwise a PlainFloats / PlainInts wrapped
// around c's own raw slice — O(1), no copy and no dictionary attempt
// (compressing is Freeze's job and costs a pass over the data). The view is
// cached on the column, so its zone map is built once, on the first range
// filter, and it is dropped when the column is appended to. ok is false
// only for a column with no numeric image to wrap (nil, or unfrozen TEXT).
func ViewOf(c *storage.Column) (Column, bool) {
	if c == nil {
		return nil, false
	}
	if col, ok := peekView(c); ok || c.Enc != nil {
		return col, ok
	}
	var v Column
	switch c.Type {
	case storage.Float64:
		v = NewPlainFloats(c.Floats)
	case storage.Int64:
		v = NewPlainInts(c.Ints)
	default:
		return nil, false
	}
	col, ok := c.CacheView(v).(Column)
	return col, ok
}

// peekView returns c's frozen encoding or live view without building one —
// the read a metrics scrape makes.
func peekView(c *storage.Column) (Column, bool) {
	if c.Enc != nil {
		return Of(c)
	}
	col, ok := c.View().(Column)
	return col, ok
}

// FloatSliceOf returns the raw float64 slice backing a frozen plain-float
// column, for consumers that would otherwise decode a full copy; ok=false
// when the column is unfrozen or not slice-backed.
func FloatSliceOf(c *storage.Column) ([]float64, bool) {
	if c == nil || c.Enc == nil {
		return nil, false
	}
	fs, ok := c.Enc.(FloatSlice)
	if !ok {
		return nil, false
	}
	return fs.RawFloats(), true
}

// RangeFromOp converts one comparison `value op x` (op ∈ {">=", "<=", ">",
// "<"}) into closed bounds [lo, hi] such that, for every non-NaN value v,
// v satisfies the comparison iff lo <= v <= hi. Strict bounds move one ULP
// inward: v > x ⟺ v >= nextafter(x, +Inf) over the float64 total order.
// A comparison no value satisfies (x NaN, or v > +Inf) returns NaN
// bounds, which every kernel treats as select-nothing. Conjunctions
// intersect bounds with IntersectRange.
func RangeFromOp(op string, x float64) (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if math.IsNaN(x) {
		return math.NaN(), math.NaN()
	}
	switch op {
	case ">=":
		lo = x
	case ">":
		if math.IsInf(x, 1) {
			return math.NaN(), math.NaN()
		}
		lo = math.Nextafter(x, math.Inf(1))
	case "<=":
		hi = x
	case "<":
		if math.IsInf(x, -1) {
			return math.NaN(), math.NaN()
		}
		hi = math.Nextafter(x, math.Inf(-1))
	}
	return lo, hi
}

// IntersectRange intersects two closed ranges; an empty intersection
// yields NaN bounds (select-nothing).
func IntersectRange(lo1, hi1, lo2, hi2 float64) (lo, hi float64) {
	lo = math.Max(lo1, lo2)
	hi = math.Min(hi1, hi2)
	if math.IsNaN(lo1) || math.IsNaN(hi1) || math.IsNaN(lo2) || math.IsNaN(hi2) || lo > hi {
		return math.NaN(), math.NaN()
	}
	return lo, hi
}

// b2u is the branchless bool→bit conversion the kernel loops build
// selection words from; the compiler lowers it to SETcc, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
