package colstore

import "math/bits"

// Bitmap is a selection bitmap over row IDs: bit i set means row i passes
// the predicate. Storage is 64-bit words, the unit the filter kernels
// produce — a kernel builds each word in a register and stores it with one
// write, so conjunctions AND whole words and counting is a popcount walk.
//
// Concurrency contract: kernels write disjoint word ranges. Morsel
// boundaries (internal/morsel, 16384 rows) are multiples of 64, so
// morsel-parallel kernels over disjoint row ranges touch disjoint words
// with no synchronization. Bits at positions >= Len() in the final word
// are always zero.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap allocates a zeroed bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Reset makes the bitmap cover n rows, none selected, reusing the backing
// words when they are large enough — for scratch bitmaps that outlive one
// query.
func (b *Bitmap) Reset(n int) {
	if nw := (n + 63) / 64; nw <= cap(b.words) {
		b.words = b.words[:nw]
		clear(b.words)
	} else {
		b.words = make([]uint64, nw)
	}
	b.n = n
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the backing words for kernel writes and manual iteration.
// Word w covers rows [64w, 64w+64).
func (b *Bitmap) Words() []uint64 { return b.words }

// Get reports whether row i is selected.
func (b *Bitmap) Get(i int) bool {
	return b.words[i>>6]>>(uint(i)&63)&1 != 0
}

// Set selects row i (not for use concurrently with kernels).
func (b *Bitmap) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Count returns the number of selected rows.
func (b *Bitmap) Count() int { return b.CountRange(0, b.n) }

// CountRange returns the number of selected rows in [r0, r1).
func (b *Bitmap) CountRange(r0, r1 int) int {
	if r1 > b.n {
		r1 = b.n
	}
	if r0 >= r1 {
		return 0
	}
	w0, w1 := r0>>6, (r1-1)>>6
	first := ^uint64(0) << (uint(r0) & 63)
	last := ^uint64(0) >> (63 - (uint(r1-1) & 63))
	if w0 == w1 {
		return bits.OnesCount64(b.words[w0] & first & last)
	}
	n := bits.OnesCount64(b.words[w0] & first)
	for w := w0 + 1; w < w1; w++ {
		n += bits.OnesCount64(b.words[w])
	}
	return n + bits.OnesCount64(b.words[w1]&last)
}

// FillRange selects rows [r0, r1). r0 must be a multiple of 64 and r1 a
// multiple of 64 or the row count.
func (b *Bitmap) FillRange(r0, r1 int) {
	for base := r0; base < r1; base += 64 {
		sel := ^uint64(0)
		if r1-base < 64 {
			sel >>= uint(64 - (r1 - base))
		}
		b.words[base>>6] = sel
	}
}

// ZeroRange clears rows [r0, r1). r0 must be a multiple of 64; the partial
// final word is cleared entirely (bits past r1 are zero by the kernel
// contract, so nothing meaningful is lost).
func (b *Bitmap) ZeroRange(r0, r1 int) {
	if r1 > b.n {
		r1 = b.n
	}
	for w := r0 >> 6; w<<6 < r1; w++ {
		b.words[w] = 0
	}
}
