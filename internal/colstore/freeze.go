package colstore

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"unsafe"

	"repro/internal/morsel"
	"repro/internal/storage"
)

// Options tunes Freeze's encoding selection.
type Options struct {
	// Parallelism is the worker count for code packing; <= 0 means
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// MaxDictCard caps dictionary cardinality; distinct-value collection
	// bails out early past it and the column stays Plain (or ForPacked).
	// 0 means DefaultMaxDictCard.
	MaxDictCard int
	// MinRatio is the minimum plain/encoded byte ratio an encoding must
	// achieve to displace Plain — compressing 3% is not worth the decode
	// arithmetic. 0 means DefaultMinRatio.
	MinRatio float64
}

// DefaultMaxDictCard bounds dictionaries at 2M entries (16 MB of float64
// dictionary), far past any real categorical or quantized column.
const DefaultMaxDictCard = 1 << 21

// DefaultMinRatio requires an encoding to save at least ~13% over plain.
const DefaultMinRatio = 1.15

func (o *Options) normalized() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Parallelism <= 0 {
		out.Parallelism = runtime.GOMAXPROCS(0)
	}
	if out.MaxDictCard <= 0 {
		out.MaxDictCard = DefaultMaxDictCard
	}
	if out.MinRatio <= 0 {
		out.MinRatio = DefaultMinRatio
	}
	return out
}

// Freeze returns a new table with the same name, schema, and row contents
// whose columns are encoded into their cheapest exact representation —
// sorted-dictionary codes, frame-of-reference packed ints, or plain
// passthrough. The frozen table is immutable (appends error) and reads
// back bit-identically to the source through the storage.Column surface,
// so every existing consumer works on it unchanged; scan hot paths
// type-assert Of(col) for the vectorized kernels. Numeric columns also get
// their zone map (see ZoneMap). Already-frozen columns pass through
// untouched, making Freeze idempotent.
func Freeze(t *storage.Table, opts *Options) (*storage.Table, error) {
	if t == nil {
		return nil, fmt.Errorf("colstore: nil table")
	}
	o := opts.normalized()
	out := &storage.Table{
		Name:     t.Name,
		Schema:   t.Schema,
		Columns:  make([]*storage.Column, len(t.Columns)),
		PageRows: t.PageRows,
	}
	for i, col := range t.Columns {
		if col.Enc != nil {
			out.Columns[i] = col
			continue
		}
		enc := encodeColumn(col, &o)
		ZonesOf(enc) // built here so that no query pays for it
		out.Columns[i] = &storage.Column{Type: col.Type, Enc: enc}
	}
	return out, nil
}

// IsFrozen reports whether every column of the table is colstore-encoded.
func IsFrozen(t *storage.Table) bool {
	if t == nil || len(t.Columns) == 0 {
		return false
	}
	for _, col := range t.Columns {
		if _, ok := Of(col); !ok {
			return false
		}
	}
	return true
}

// encodeColumn picks and builds the encoding for one raw column.
func encodeColumn(col *storage.Column, o *Options) Column {
	switch col.Type {
	case storage.Float64:
		return encodeFloats(col.Floats, o)
	case storage.Int64:
		return encodeInts(col.Ints, o)
	default:
		return encodeStrings(col.Strings, o)
	}
}

// encodeFloats dictionary-encodes a float column when its cardinality and
// the resulting bytes justify it. Distinct values are keyed by bit
// pattern (so -0.0 and +0.0 decode back exactly) and NaN disqualifies the
// column — NaN has no sorted position, and the kernels' compare semantics
// already match the oracle through the Plain path. Whether a dictionary
// pays depends only on the row count and the cardinality, so the distinct
// count stops early (distinctBelow).
func encodeFloats(vals []float64, o *Options) Column {
	if len(vals) == 0 {
		return NewPlainFloats(vals)
	}
	distinct := distinctBelow(wordsOf(vals), dictLimit(len(vals), math.MaxInt64, o), true)
	if distinct == nil {
		return NewPlainFloats(vals)
	}
	card := len(distinct)
	dict := make([]float64, 0, card)
	for bits := range distinct {
		dict = append(dict, math.Float64frombits(bits))
	}
	sort.Slice(dict, func(a, b int) bool {
		x, y := dict[a], dict[b]
		if x != y {
			return x < y
		}
		// Only ±0.0 compares equal with distinct bits; put -0.0 first so
		// the dictionary is deterministic.
		return math.Signbit(x) && !math.Signbit(y)
	})
	c := &DictColumn{
		typ:        storage.Float64,
		fvals:      dict,
		plainBytes: int64(len(vals)) * 8,
		dictBytes:  int64(card) * 8,
	}
	for code, v := range dict {
		distinct[math.Float64bits(v)] = uint32(code)
	}
	c.codes = packCodes(len(vals), dictWidth(card), o.Parallelism, func(i int) uint64 {
		return uint64(distinct[math.Float64bits(vals[i])])
	})
	return c
}

// wordsOf returns vals' 8-byte images in place: a float's bit pattern, an
// int's two's complement — what dictionaries key on.
func wordsOf[T float64 | int64](vals []T) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals))
}

// dictLimit is the smallest cardinality that rules a dictionary out for an
// n-row column of 8-byte values — past MaxDictCard, failing dictPays, or
// no smaller than alt, the bytes of the best other encoding — or n+1 when
// every cardinality a column of n rows can have is still chosen. Each
// condition only gets easier to meet as the cardinality grows, so the
// first is found by binary search.
func dictLimit(n int, alt int64, o *Options) int {
	plainBytes := int64(n) * 8
	return 1 + sort.Search(n, func(i int) bool {
		card := i + 1
		return card > o.MaxDictCard || !dictPays(plainBytes, n, card, o.MinRatio) || dictBytes(n, card) >= alt
	})
}

// distinctBelow returns the distinct values of words, each keyed to 0, or
// nil once they are proven to number limit or more — or, with float set,
// to hold a NaN image. A hashed pass (bucketsReach) can prove it without
// building the map; otherwise the map's count stops at the first distinct
// value that reaches limit, so a high-cardinality column is rejected
// without materialising or sorting a dictionary.
func distinctBelow(words []uint64, limit int, float bool) map[uint64]uint32 {
	if bucketsReach(words, limit, float) {
		return nil
	}
	distinct := make(map[uint64]uint32, 1024)
	for _, w := range words {
		if float && isNaNBits(w) {
			return nil
		}
		if _, ok := distinct[w]; !ok {
			if len(distinct)+1 >= limit {
				return nil
			}
			distinct[w] = 0
		}
	}
	return distinct
}

// isNaNBits reports whether w is the bit pattern of a float64 NaN: every
// exponent bit set and a non-zero mantissa.
func isNaNBits(w uint64) bool { return w&^(1<<63) > 0x7ff0000000000000 }

// bucketsReach reports whether words hold at least limit distinct values
// — or, with float set, a NaN image — proven without a map: each word is
// mixed by splitmix64's finalizer (so values that differ only in their
// high bits, like small integers as floats, spread too) to a bucket of a
// bitmap sized at 4–8 bits per row, and the count of buckets filled so far
// is a lower bound on the distinct values seen, because equal values share
// a bucket. A false return decides nothing: the exact count has to run.
func bucketsReach(words []uint64, limit int, float bool) bool {
	if limit > len(words) {
		return false
	}
	logBuckets := max(6, uint(bits.Len(uint(len(words)-1)))+2)
	seen := make([]uint64, 1<<(logBuckets-6))
	filled := 0
	for _, h := range words {
		if float && isNaNBits(h) {
			return true
		}
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h = (h ^ h>>31) >> (64 - logBuckets)
		w, b := h>>6, uint64(1)<<(h&63)
		if seen[w]&b == 0 {
			seen[w] |= b
			if filled++; filled >= limit {
				return true
			}
		}
	}
	return false
}

// dictWidth is the packed code width of a card-entry dictionary.
func dictWidth(card int) uint { return WidthFor(uint64(max(card-1, 0))) }

// dictBytes is the footprint of an n-row column of 8-byte values coded
// against a card-entry dictionary: the packed codes and the entries.
func dictBytes(n, card int) int64 { return packedBytes(n, dictWidth(card)) + int64(card)*8 }

// dictPays reports whether an n-row column of 8-byte values with card
// distinct values is at least minRatio times smaller dictionary-coded
// than its plainBytes.
func dictPays(plainBytes int64, n, card int, minRatio float64) bool {
	return float64(plainBytes) >= minRatio*float64(dictBytes(n, card))
}

// encodeInts picks between frame-of-reference packing (contiguous-ish
// ranges), a dictionary (low cardinality over a wide or huge-magnitude
// range), and plain. ForPacked requires every value within ±2^52 — the
// magnitude where float64(int64) stays exact, which the bound translation
// depends on — and a useful width. The distinct count stops as soon as a
// dictionary can no longer beat both (distinctBelow).
func encodeInts(vals []int64, o *Options) Column {
	plainBytes := int64(len(vals)) * 8
	if len(vals) == 0 {
		return NewPlainInts(vals)
	}
	minV, maxV := vals[0], vals[0]
	for _, v := range vals {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	var forBytes int64 = math.MaxInt64
	var forWidth uint
	span := uint64(maxV) - uint64(minV)
	if minV >= -forMaxMagnitude && maxV <= forMaxMagnitude {
		if w := WidthFor(span); w <= forMaxWidth {
			forWidth = w
			forBytes = packedBytes(len(vals), w)
		}
	}

	if distinct := distinctBelow(wordsOf(vals), dictLimit(len(vals), forBytes, o), false); distinct != nil {
		dict := make([]int64, 0, len(distinct))
		for w := range distinct {
			dict = append(dict, int64(w))
		}
		sort.Slice(dict, func(a, b int) bool { return dict[a] < dict[b] })
		for code, v := range dict {
			distinct[uint64(v)] = uint32(code)
		}
		c := &DictColumn{
			typ:        storage.Int64,
			ivals:      dict,
			plainBytes: plainBytes,
			dictBytes:  int64(len(dict)) * 8,
		}
		c.codes = packCodes(len(vals), dictWidth(len(dict)), o.Parallelism, func(i int) uint64 {
			return uint64(distinct[uint64(vals[i])])
		})
		return c
	}
	if float64(plainBytes) < o.MinRatio*float64(forBytes) {
		return NewPlainInts(vals)
	}
	c := &ForColumn{ref: minV, span: span}
	c.codes = packCodes(len(vals), forWidth, o.Parallelism, func(i int) uint64 {
		return uint64(vals[i]) - uint64(minV)
	})
	return c
}

// encodeStrings dictionary-encodes a string column unless its cardinality
// approaches the row count, where a dictionary would just duplicate it.
// The byte test stops once the strings seen so far rule a dictionary out:
// a further distinct string adds its payload to both sides of the test and
// a header and code bits to the dictionary side alone, so at MinRatio ≥ 1
// it only gets harder to pass. The distinct count goes on in the same map,
// since the plain column's footprint counts each distinct payload once.
// Only a kept dictionary is sorted.
func encodeStrings(vals []string, o *Options) Column {
	n := len(vals)
	// plainWins is the byte test at card distinct strings of data payload bytes.
	plainWins := func(card int, data int64) bool {
		return float64(stringHeaderBytes*int64(n)+data) < o.MinRatio*float64(packedBytes(n, dictWidth(card))+stringHeaderBytes*int64(card)+data)
	}
	distinct := make(map[string]uint32, 1024)
	var data int64
	decided := false // plain won early: only the payload is still counted
	for _, v := range vals {
		if _, ok := distinct[v]; !ok {
			distinct[v] = 0
			data += int64(len(v))
			if !decided && (len(distinct) > o.MaxDictCard || o.MinRatio >= 1 && plainWins(len(distinct), data)) {
				decided = true
			}
		}
	}
	if decided || plainWins(len(distinct), data) {
		return &PlainStrings{vals: vals, plainBytes: stringHeaderBytes*int64(n) + data}
	}
	dict := make([]string, 0, len(distinct))
	for v := range distinct {
		dict = append(dict, v)
	}
	sort.Strings(dict)
	for code, v := range dict {
		distinct[v] = uint32(code)
	}
	c := &DictColumn{
		typ:        storage.String,
		svals:      dict,
		plainBytes: stringHeaderBytes*int64(n) + data,
		dictBytes:  stringHeaderBytes*int64(len(dict)) + data,
	}
	c.codes = packCodes(n, dictWidth(len(dict)), o.Parallelism, func(i int) uint64 {
		return uint64(distinct[vals[i]])
	})
	return c
}

// stringHeaderBytes is a Go string header (pointer + length). Plain-bytes
// accounting for string columns counts one header per row plus each
// distinct string's payload once — the fully-shared-backing assumption,
// which understates (never inflates) the compression ratio.
const stringHeaderBytes = 16

// plainStringBytes is the equivalent-plain footprint of a string slice.
func plainStringBytes(vals []string) int64 {
	seen := make(map[string]struct{}, 1024)
	var data int64
	for _, v := range vals {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			data += int64(len(v))
		}
	}
	return stringHeaderBytes*int64(len(vals)) + data
}

// packedBytes is the byte footprint of n elements packed at width.
func packedBytes(n int, width uint) int64 {
	nbits := uint64(n) * uint64(width)
	nwords := (nbits+63)/64 + 1
	if nwords < 2 {
		nwords = 2
	}
	return int64(nwords) * 8
}

// packCodes fills a packed array morsel-parallel: morsel boundaries are
// 64-element-aligned, so workers touch disjoint words (see NewPackedZero).
func packCodes(n int, width uint, parallelism int, codeOf func(i int) uint64) *PackedInts {
	p := NewPackedZero(n, width)
	workers := 1
	if parallelism > 1 && n >= 2*morsel.Size {
		workers = morsel.Workers(parallelism, n)
	}
	morsel.Run(n, workers, func(_, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.Put(i, codeOf(i))
		}
	})
	return p
}

// ColumnStats describes one column's encoded footprint.
type ColumnStats struct {
	Name        string  `json:"name"`
	Encoding    string  `json:"encoding"`
	Bytes       int64   `json:"bytes"`
	PlainBytes  int64   `json:"plain_bytes"`
	Ratio       float64 `json:"ratio"`
	Cardinality int     `json:"cardinality,omitempty"` // dictionary entries; 0 = not dictionary-coded
	BitWidth    uint    `json:"bit_width,omitempty"`   // packed code width; 0 = unpacked

	// ZoneBytes is the column's zone map, resident beside Bytes; the
	// ZoneWords counters are what FilterRange has done with the column's
	// 64-row words so far: decided empty, decided full, or compared row
	// by row.
	ZoneBytes          int64 `json:"zone_bytes,omitempty"`
	ZoneWordsSkipped   int64 `json:"zone_words_skipped,omitempty"`
	ZoneWordsFilled    int64 `json:"zone_words_filled,omitempty"`
	ZoneWordsEvaluated int64 `json:"zone_words_evaluated,omitempty"`

	// RunBytes is the column's bounds in the table's cell-run directory
	// (see Runs); the Runs counters are what histogram statements reading
	// the column did with its runs: skipped, summed whole without reading
	// a row, or sent to the row kernels.
	RunBytes    int64 `json:"run_bytes,omitempty"`
	RunsSkipped int64 `json:"runs_skipped,omitempty"`
	RunsSummed  int64 `json:"runs_summed,omitempty"`
	RunsScanned int64 `json:"runs_scanned,omitempty"`

	// SketchBytes is the column's sketch (plain numeric columns, once a
	// range filter has built it), resident beside Bytes; the SketchRows
	// counters split the rows of the words zones left undecided into those
	// FilterRange decided from the one-byte code and those it went on to
	// compare by value.
	SketchBytes       int64 `json:"sketch_bytes,omitempty"`
	SketchRowsDecided int64 `json:"sketch_rows_decided,omitempty"`
	SketchRowsRefined int64 `json:"sketch_rows_refined,omitempty"`
}

// TableStats aggregates per-column footprints; Ratio is the table-level
// compression factor (plain bytes over encoded bytes).
type TableStats struct {
	Table        string        `json:"table"`
	Rows         int           `json:"rows"`
	Columns      []ColumnStats `json:"columns"`
	EncodedBytes int64         `json:"encoded_bytes"`
	PlainBytes   int64         `json:"plain_bytes"`
	ZoneBytes    int64         `json:"zone_bytes"`
	SketchBytes  int64         `json:"sketch_bytes"`
	RunBytes     int64         `json:"run_bytes"` // the whole directory, run starts and grid included
	Ratio        float64       `json:"ratio"`

	// RunsDecided counts the runs histogram statements decided one by one
	// from their bounds; GridStatements the statements whose interior the
	// directory's cell grid counted instead (see Grid).
	RunsDecided    int64 `json:"runs_decided,omitempty"`
	GridStatements int64 `json:"grid_statements,omitempty"`
}

// StatsOf reports the byte footprint and the zone, sketch and run
// counters of every column a scan can reach through colstore: all of a
// frozen table's, and of an unfrozen table those with a live view (see
// ViewOf — encoding "plain", ratio 1). It reads what exists and builds
// nothing, so a scrape costs O(columns) and a table nothing has scanned
// yet reports no columns.
func StatsOf(t *storage.Table) TableStats {
	st := TableStats{Table: t.Name, Rows: t.NumRows()}
	runs := RunsOf(t)
	if runs != nil {
		st.RunBytes = runs.bytes()
		st.RunsDecided, st.GridStatements = runs.decided.Load(), runs.gridded.Load()
	}
	for i, col := range t.Columns {
		enc, ok := peekView(col)
		if !ok {
			continue
		}
		cs := ColumnStats{
			Name:       t.Schema[i].Name,
			Encoding:   enc.EncodingName(),
			Bytes:      enc.EncodedBytes(),
			PlainBytes: enc.PlainBytes(),
		}
		var zm *ZoneMap // read in place: a scrape must not build one,
		var sk *Sketch  // nor a sketch
		switch c := enc.(type) {
		case *PlainFloats:
			zm, sk = &c.zm, c.sk.p.Load()
		case *PlainInts:
			zm, sk = &c.zm, c.sk.p.Load()
		case *ForColumn:
			zm = &c.zm
			cs.BitWidth = c.codes.Width()
		case *DictColumn:
			cs.Cardinality = c.card()
			cs.BitWidth = c.codes.Width()
			if c.typ != storage.String {
				zm = &c.zm
			}
		}
		if zm != nil {
			cs.ZoneBytes = zoneBytes(enc.Len())
			cs.ZoneWordsSkipped, cs.ZoneWordsFilled, cs.ZoneWordsEvaluated = zm.Words()
		}
		if sk != nil {
			cs.SketchBytes = sk.bytes()
			cs.SketchRowsDecided, cs.SketchRowsRefined = sk.Rows()
		}
		if runs != nil && runs.cols[i] != nil {
			rb := runs.cols[i]
			cs.RunBytes = rb.bytes()
			cs.RunsSkipped, cs.RunsSummed, cs.RunsScanned = rb.Counts()
		}
		if cs.Bytes > 0 {
			cs.Ratio = float64(cs.PlainBytes) / float64(cs.Bytes)
		}
		st.Columns = append(st.Columns, cs)
		st.EncodedBytes += cs.Bytes
		st.PlainBytes += cs.PlainBytes
		st.ZoneBytes += cs.ZoneBytes
		st.SketchBytes += cs.SketchBytes
	}
	if st.EncodedBytes > 0 {
		st.Ratio = float64(st.PlainBytes) / float64(st.EncodedBytes)
	}
	return st
}
