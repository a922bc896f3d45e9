package colstore

import (
	"repro/internal/storage"
)

// PlainFloats is the passthrough encoding for incompressible float64
// columns (high-cardinality or NaN-containing) and the zero-copy view of
// an unfrozen one (ViewOf). It exists so that every table is uniformly
// colstore-backed: consumers type-assert one interface and every column
// answers, compressed or not.
type PlainFloats struct {
	vals []float64
	zm   ZoneMap
	sk   lazySketch
}

// NewPlainFloats wraps a float64 slice (borrowed, not copied).
func NewPlainFloats(vals []float64) *PlainFloats { return &PlainFloats{vals: vals} }

func (c *PlainFloats) Len() int                  { return len(c.vals) }
func (c *PlainFloats) Value(i int) storage.Value { return storage.NewFloat(c.vals[i]) }
func (c *PlainFloats) Float(i int) float64       { return c.vals[i] }
func (c *PlainFloats) EncodedBytes() int64       { return int64(len(c.vals)) * 8 }
func (c *PlainFloats) EncodingName() string      { return Plain.String() }
func (c *PlainFloats) Encoding() Encoding        { return Plain }
func (c *PlainFloats) Type() storage.Type        { return storage.Float64 }
func (c *PlainFloats) PlainBytes() int64         { return int64(len(c.vals)) * 8 }

// RawFloats exposes the backing slice (FloatSlice capability).
func (c *PlainFloats) RawFloats() []float64 { return c.vals }

func (c *PlainFloats) FilterRange(lo, hi float64, r0, r1 int, dst *Bitmap, and bool) {
	filterSketched(c.sketch(), c.zones(), lo, hi, r0, r1, dst, and, func(u0, u1 int, and bool) {
		filterFloats(c.vals, lo, hi, u0, u1, dst, and)
	})
}

// PlainInts is the passthrough encoding for int64 columns whose value
// range defeats frame-of-reference packing (width >= 64 bits, or
// magnitudes past 2^52 where the float64 image — what every scan compares
// — goes inexact).
type PlainInts struct {
	vals []int64
	zm   ZoneMap
	sk   lazySketch
}

// NewPlainInts wraps an int64 slice (borrowed, not copied).
func NewPlainInts(vals []int64) *PlainInts { return &PlainInts{vals: vals} }

func (c *PlainInts) Len() int                  { return len(c.vals) }
func (c *PlainInts) Value(i int) storage.Value { return storage.NewInt(c.vals[i]) }
func (c *PlainInts) Float(i int) float64       { return float64(c.vals[i]) }
func (c *PlainInts) EncodedBytes() int64       { return int64(len(c.vals)) * 8 }
func (c *PlainInts) EncodingName() string      { return Plain.String() }
func (c *PlainInts) Encoding() Encoding        { return Plain }
func (c *PlainInts) Type() storage.Type        { return storage.Int64 }
func (c *PlainInts) PlainBytes() int64         { return int64(len(c.vals)) * 8 }

func (c *PlainInts) FilterRange(lo, hi float64, r0, r1 int, dst *Bitmap, and bool) {
	filterSketched(c.sketch(), c.zones(), lo, hi, r0, r1, dst, and, func(u0, u1 int, and bool) {
		filterInts(c.vals, lo, hi, u0, u1, dst, and)
	})
}

// PlainStrings is the passthrough encoding for string columns whose
// cardinality defeats dictionary coding (near-distinct values, where a
// dictionary would just duplicate the column). The numeric-range kernel
// panics, mirroring storage.Column.Float's TEXT contract.
type PlainStrings struct {
	vals       []string
	plainBytes int64
}

// NewPlainStrings wraps a string slice (borrowed, not copied).
func NewPlainStrings(vals []string) *PlainStrings {
	return &PlainStrings{vals: vals, plainBytes: plainStringBytes(vals)}
}

func (c *PlainStrings) Len() int                  { return len(c.vals) }
func (c *PlainStrings) Value(i int) storage.Value { return storage.NewString(c.vals[i]) }
func (c *PlainStrings) Float(i int) float64 {
	panic("storage: Float on a TEXT column (string columns have no numeric form; use Value)")
}
func (c *PlainStrings) EncodedBytes() int64  { return c.plainBytes }
func (c *PlainStrings) EncodingName() string { return Plain.String() }
func (c *PlainStrings) Encoding() Encoding   { return Plain }
func (c *PlainStrings) Type() storage.Type   { return storage.String }
func (c *PlainStrings) PlainBytes() int64    { return c.plainBytes }

func (c *PlainStrings) FilterRange(lo, hi float64, r0, r1 int, dst *Bitmap, and bool) {
	panic("colstore: FilterRange on a TEXT column")
}
