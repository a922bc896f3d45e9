package colstore

import (
	"math/bits"

	"repro/internal/morsel"
)

// The shared kernel inner loops. Each builds one 64-row selection word in
// a register — branchless compares ORed into place — and stores (or ANDs)
// it with a single write, so a worker filtering a morsel-aligned row range
// owns its bitmap words exclusively.

// storeWord commits one built selection word covering rows [base, base+64).
func storeWord(dst *Bitmap, base int, sel uint64, and bool) {
	w := base >> 6
	if and {
		dst.words[w] &= sel
	} else {
		dst.words[w] = sel
	}
}

// filterCodes selects rows whose packed code lies in [cLo, cHi]. The
// in-range test is one unsigned subtract-compare: c-cLo wraps above span
// for every c < cLo.
//
// An AND pass walks only the set bits of each destination word instead of
// re-extracting all 64 codes: rows a previous predicate already rejected
// cannot come back, so the work of a conjunction shrinks with its running
// selectivity — the bitmap analog of a scalar loop's short-circuit.
func filterCodes(p *PackedInts, cLo, cHi uint64, r0, r1 int, dst *Bitmap, and bool) {
	if cHi < cLo {
		dst.ZeroRange(r0, r1)
		return
	}
	span := cHi - cLo
	width, mask, words := uint64(p.width), p.mask, p.words
	if and {
		for base := r0; base < r1; base += 64 {
			x := dst.words[base>>6]
			if x == 0 {
				continue
			}
			var sel uint64
			for x != 0 {
				i := bits.TrailingZeros64(x)
				x &= x - 1
				bit := uint64(base+i) * width
				w, off := bit>>6, uint(bit&63)
				c := (words[w]>>off | words[w+1]<<(64-off)) & mask
				sel |= b2u(c-cLo <= span) << uint(i)
			}
			dst.words[base>>6] &= sel
		}
		return
	}
	bit := uint64(r0) * width
	for base := r0; base < r1; base += 64 {
		end := base + 64
		if end > r1 {
			end = r1
		}
		var sel uint64
		for i := base; i < end; i++ {
			w, off := bit>>6, uint(bit&63)
			c := (words[w]>>off | words[w+1]<<(64-off)) & mask
			sel |= b2u(c-cLo <= span) << uint(i-base)
			bit += width
		}
		storeWord(dst, base, sel, false)
	}
}

// filterFloats selects rows of a raw float64 slice in [lo, hi]. NaN values
// fail both compares, NaN bounds fail every row — matching the oracle's
// comparison semantics exactly.
func filterFloats(vals []float64, lo, hi float64, r0, r1 int, dst *Bitmap, and bool) {
	if and {
		for base := r0; base < r1; base += 64 {
			x := dst.words[base>>6]
			if x == 0 {
				continue
			}
			var sel uint64
			for x != 0 {
				i := bits.TrailingZeros64(x)
				x &= x - 1
				v := vals[base+i]
				sel |= (b2u(v >= lo) & b2u(v <= hi)) << uint(i)
			}
			dst.words[base>>6] &= sel
		}
		return
	}
	for base := r0; base < r1; base += 64 {
		end := base + 64
		if end > r1 {
			end = r1
		}
		var sel uint64
		for i := base; i < end; i++ {
			v := vals[i]
			sel |= (b2u(v >= lo) & b2u(v <= hi)) << uint(i-base)
		}
		storeWord(dst, base, sel, false)
	}
}

// filterInts selects rows of a raw int64 slice whose float64 image lies in
// [lo, hi] — the conversion the plain oracle applies before comparing.
func filterInts(vals []int64, lo, hi float64, r0, r1 int, dst *Bitmap, and bool) {
	if and {
		for base := r0; base < r1; base += 64 {
			x := dst.words[base>>6]
			if x == 0 {
				continue
			}
			var sel uint64
			for x != 0 {
				i := bits.TrailingZeros64(x)
				x &= x - 1
				v := float64(vals[base+i])
				sel |= (b2u(v >= lo) & b2u(v <= hi)) << uint(i)
			}
			dst.words[base>>6] &= sel
		}
		return
	}
	for base := r0; base < r1; base += 64 {
		end := base + 64
		if end > r1 {
			end = r1
		}
		var sel uint64
		for i := base; i < end; i++ {
			v := float64(vals[i])
			sel |= (b2u(v >= lo) & b2u(v <= hi)) << uint(i-base)
		}
		storeWord(dst, base, sel, false)
	}
}

// RangePred is one conjunctive closed-range predicate for Select.
type RangePred struct {
	Col    Column
	Lo, Hi float64
}

// Select evaluates the conjunction of range predicates over all n rows
// with morsel parallelism, writing the selection into a fresh bitmap.
// With no predicates every row is selected. parallelism <= 1 is the
// serial oracle; results are identical at every level because each worker
// owns disjoint morsel-aligned word ranges.
func Select(n int, preds []RangePred, parallelism int) *Bitmap {
	dst := NewBitmap(n)
	workers := 1
	if parallelism > 1 && n >= 2*morsel.Size {
		workers = morsel.Workers(parallelism, n)
	}
	morsel.Run(n, workers, func(_, _, lo, hi int) {
		if len(preds) == 0 {
			dst.FillRange(lo, hi)
			return
		}
		for k, p := range preds {
			p.Col.FilterRange(p.Lo, p.Hi, lo, hi, dst, k > 0)
		}
	})
	return dst
}
