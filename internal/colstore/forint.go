package colstore

import (
	"math"

	"repro/internal/storage"
)

// forMaxMagnitude bounds the values frame-of-reference packing accepts:
// within ±2^52 every int64 has an exact float64 image, so the ceil/floor
// bound translation in CodeRange reproduces the plain oracle's float
// comparisons bit-for-bit. Beyond it the column stays Plain.
const forMaxMagnitude = int64(1) << 52

// forMaxWidth caps the packed code width; above it the space win is too
// small to justify the decode arithmetic over an 8-byte raw read.
const forMaxWidth = 48

// ForColumn is frame-of-reference bit-packed int64: row i's value is
// ref + code(i), with codes packed at the width of (max − min). Codes are
// trivially order-preserving (adding a constant preserves order), so range
// predicates translate to code intervals with two integer ceil/floor
// computations — no dictionary, no search.
type ForColumn struct {
	ref   int64 // minimum value; codes span [0, spanMax]
	span  uint64
	codes *PackedInts
	zm    ZoneMap
}

func (c *ForColumn) Len() int { return c.codes.Len() }

func (c *ForColumn) value(i int) int64 { return c.ref + int64(c.codes.Get(i)) }

func (c *ForColumn) Value(i int) storage.Value { return storage.NewInt(c.value(i)) }
func (c *ForColumn) Float(i int) float64       { return float64(c.value(i)) }
func (c *ForColumn) EncodedBytes() int64       { return c.codes.Bytes() }
func (c *ForColumn) EncodingName() string      { return ForPacked.String() }
func (c *ForColumn) Encoding() Encoding        { return ForPacked }
func (c *ForColumn) Type() storage.Type        { return storage.Int64 }
func (c *ForColumn) PlainBytes() int64         { return int64(c.codes.Len()) * 8 }

// Codes returns the packed per-row codes.
func (c *ForColumn) Codes() *PackedInts { return c.codes }

// CodeSpan returns the maximum code (max − min).
func (c *ForColumn) CodeSpan() uint64 { return c.span }

// DecodeFloat returns the float64 image of a code.
func (c *ForColumn) DecodeFloat(code uint64) float64 {
	return float64(c.ref + int64(code))
}

// CodeRange maps the closed value range [lo, hi] to the inclusive code
// interval. An integer value v satisfies float64(v) >= lo iff
// v >= ceil(lo) (exact because every value is within ±2^52), so the
// interval is [ceil(lo)−ref, floor(hi)−ref] clamped to the code span.
func (c *ForColumn) CodeRange(lo, hi float64) (cLo, cHi uint64, ok bool) {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, 0, false
	}
	minV, maxV := float64(c.ref), float64(c.ref+int64(c.span))
	if lo > maxV || hi < minV {
		return 0, 0, false
	}
	var l, h uint64
	if lo > minV {
		l = uint64(int64(math.Ceil(lo)) - c.ref)
	}
	h = c.span
	if hi < maxV {
		h = uint64(int64(math.Floor(hi)) - c.ref)
	}
	if h < l { // an empty integer gap like [3.2, 3.8]
		return 0, 0, false
	}
	return l, h, true
}

func (c *ForColumn) FilterRange(lo, hi float64, r0, r1 int, dst *Bitmap, and bool) {
	cLo, cHi, ok := c.CodeRange(lo, hi)
	if !ok {
		dst.ZeroRange(r0, r1)
		return
	}
	c.zones().filter(lo, hi, r0, r1, dst, and, func(u0, u1 int) {
		filterCodes(c.codes, cLo, cHi, u0, u1, dst, and)
	})
}
