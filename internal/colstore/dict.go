package colstore

import (
	"sort"

	"repro/internal/storage"
)

// DictColumn is the sorted-dictionary encoding: the column's distinct
// values, sorted ascending, with each row storing the bit-packed index of
// its value. Sorting the dictionary makes codes order-preserving, which is
// the whole trick — a range predicate over values maps to an interval of
// codes (two binary searches over the dictionary, once per query), so the
// scan compares packed codes and never touches a value.
//
// Exactly one of fvals/ivals/svals is populated, matching typ. Float
// dictionaries are deduplicated by bit pattern, not by ==: -0.0 and +0.0
// get adjacent codes (CodeRange spans both), so decoding reproduces the
// original bits and encoded results stay byte-identical to plain ones.
// NaN never reaches a dictionary — Freeze keeps NaN-containing columns
// Plain, because NaN has no position in a sorted order.
type DictColumn struct {
	typ   storage.Type
	codes *PackedInts
	fvals []float64
	ivals []int64
	svals []string

	plainBytes int64
	dictBytes  int64
	zm         ZoneMap // numeric dictionaries only
}

func (c *DictColumn) card() int {
	switch c.typ {
	case storage.Float64:
		return len(c.fvals)
	case storage.Int64:
		return len(c.ivals)
	default:
		return len(c.svals)
	}
}

// keyFloat is the float64 image of dictionary entry k, the ordering the
// numeric kernels and the plain oracle both compare in.
func (c *DictColumn) keyFloat(k int) float64 {
	if c.typ == storage.Float64 {
		return c.fvals[k]
	}
	return float64(c.ivals[k])
}

func (c *DictColumn) Len() int { return c.codes.Len() }

func (c *DictColumn) Value(i int) storage.Value {
	code := c.codes.Get(i)
	switch c.typ {
	case storage.Float64:
		return storage.NewFloat(c.fvals[code])
	case storage.Int64:
		return storage.NewInt(c.ivals[code])
	default:
		return storage.NewString(c.svals[code])
	}
}

func (c *DictColumn) Float(i int) float64 {
	if c.typ == storage.String {
		panic("storage: Float on a TEXT column (string columns have no numeric form; use Value)")
	}
	return c.keyFloat(int(c.codes.Get(i)))
}

func (c *DictColumn) EncodedBytes() int64  { return c.codes.Bytes() + c.dictBytes }
func (c *DictColumn) EncodingName() string { return Dict.String() }
func (c *DictColumn) Encoding() Encoding   { return Dict }
func (c *DictColumn) Type() storage.Type   { return c.typ }
func (c *DictColumn) PlainBytes() int64    { return c.plainBytes }

// Codes returns the packed per-row codes.
func (c *DictColumn) Codes() *PackedInts { return c.codes }

// CodeSpan returns the maximum code (cardinality − 1; 0 when empty).
func (c *DictColumn) CodeSpan() uint64 {
	if n := c.card(); n > 0 {
		return uint64(n - 1)
	}
	return 0
}

// DecodeFloat returns the float64 image of a code.
func (c *DictColumn) DecodeFloat(code uint64) float64 { return c.keyFloat(int(code)) }

// CodeRange maps [lo, hi] to the inclusive code interval whose values fall
// in the range. NaN bounds produce an empty interval — a NaN lo fails
// every `>= lo` and puts l at the end, a NaN hi fails every `<= hi` and
// puts h at the start — matching the select-nothing contract.
func (c *DictColumn) CodeRange(lo, hi float64) (cLo, cHi uint64, ok bool) {
	if c.typ == storage.String {
		panic("colstore: CodeRange on a TEXT column")
	}
	n := c.card()
	l := sort.Search(n, func(k int) bool { return c.keyFloat(k) >= lo })
	h := sort.Search(n, func(k int) bool { return !(c.keyFloat(k) <= hi) })
	if l >= h {
		return 0, 0, false
	}
	return uint64(l), uint64(h - 1), true
}

func (c *DictColumn) FilterRange(lo, hi float64, r0, r1 int, dst *Bitmap, and bool) {
	if c.typ == storage.String {
		panic("colstore: FilterRange on a TEXT column")
	}
	cLo, cHi, ok := c.CodeRange(lo, hi)
	if !ok {
		dst.ZeroRange(r0, r1)
		return
	}
	c.zones().filter(lo, hi, r0, r1, dst, and, func(u0, u1 int) {
		filterCodes(c.codes, cLo, cHi, u0, u1, dst, and)
	})
}
