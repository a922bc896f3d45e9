package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []uint{0, 1, 3, 7, 8, 13, 16, 21, 32, 48, 63, 64} {
		n := 500 + rng.Intn(200)
		vals := make([]uint64, n)
		var mask uint64
		if width > 0 {
			mask = ^uint64(0) >> (64 - width)
		}
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		p := PackInts(vals, width)
		if p.Len() != n || p.Width() != width {
			t.Fatalf("width %d: Len/Width = %d/%d", width, p.Len(), p.Width())
		}
		for i, want := range vals {
			if got := p.Get(i); got != want {
				t.Fatalf("width %d: Get(%d) = %d, want %d", width, i, got, want)
			}
		}
	}
}

func TestPackedEmptyAndZeroWidth(t *testing.T) {
	for _, tc := range []struct {
		n     int
		width uint
	}{{0, 0}, {0, 17}, {5, 0}} {
		p := NewPackedZero(tc.n, tc.width)
		for i := 0; i < tc.n; i++ {
			if p.Get(i) != 0 {
				t.Fatalf("n=%d width=%d: Get(%d) != 0", tc.n, tc.width, i)
			}
		}
		if len(p.words) < 2 {
			t.Fatalf("n=%d width=%d: %d words; Get needs two", tc.n, tc.width, len(p.words))
		}
	}
}

func TestPackedPutOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put of an over-width value did not panic")
		}
	}()
	NewPackedZero(4, 3).Put(0, 8)
}

func TestBitmapBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 1000
	b := NewBitmap(n)
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			b.Set(i)
			ref[i] = true
		}
	}
	want := 0
	for i, v := range ref {
		if v {
			want++
		}
		if b.Get(i) != v {
			t.Fatalf("Get(%d) = %v, want %v", i, b.Get(i), v)
		}
	}
	if b.Count() != want {
		t.Fatalf("Count = %d, want %d", b.Count(), want)
	}
	for trial := 0; trial < 200; trial++ {
		r0, r1 := rng.Intn(n+1), rng.Intn(n+1)
		if r0 > r1 {
			r0, r1 = r1, r0
		}
		cnt := 0
		for i := r0; i < r1; i++ {
			if ref[i] {
				cnt++
			}
		}
		if got := b.CountRange(r0, r1); got != cnt {
			t.Fatalf("CountRange(%d, %d) = %d, want %d", r0, r1, got, cnt)
		}
	}
}

func TestRangeFromOpMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := []float64{0, -0.0, 1, -1, 0.1, -2.5, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i := 0; i < 50; i++ {
		xs = append(xs, rng.NormFloat64()*100)
	}
	vs := append([]float64{}, xs...)
	for _, op := range []string{">=", "<=", ">", "<"} {
		for _, x := range xs {
			lo, hi := RangeFromOp(op, x)
			for _, v := range vs {
				if math.IsNaN(v) {
					continue // NaN values are filtered by kernels, not the transform
				}
				var want bool
				switch op {
				case ">=":
					want = v >= x
				case "<=":
					want = v <= x
				case ">":
					want = v > x
				case "<":
					want = v < x
				}
				got := v >= lo && v <= hi
				if got != want {
					t.Fatalf("RangeFromOp(%q, %v) = [%v, %v]: v=%v selected=%v, want %v", op, x, lo, hi, v, got, want)
				}
			}
		}
	}
}

func TestIntersectRange(t *testing.T) {
	if lo, hi := IntersectRange(0, 10, 5, 20); lo != 5 || hi != 10 {
		t.Fatalf("IntersectRange = [%v, %v], want [5, 10]", lo, hi)
	}
	if lo, hi := IntersectRange(0, 1, 2, 3); !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatalf("disjoint ranges should intersect to NaN, got [%v, %v]", lo, hi)
	}
	if lo, _ := IntersectRange(math.NaN(), math.NaN(), 0, 1); !math.IsNaN(lo) {
		t.Fatal("NaN input should stay NaN")
	}
}

// rawTable builds an unfrozen table directly from slices.
func rawTable(name string, cols map[string]interface{}, order []string) *storage.Table {
	t := &storage.Table{Name: name, PageRows: storage.DefaultPageRows}
	for _, cn := range order {
		switch vals := cols[cn].(type) {
		case []float64:
			t.Schema = append(t.Schema, storage.ColumnDef{Name: cn, Type: storage.Float64})
			t.Columns = append(t.Columns, &storage.Column{Type: storage.Float64, Floats: vals})
		case []int64:
			t.Schema = append(t.Schema, storage.ColumnDef{Name: cn, Type: storage.Int64})
			t.Columns = append(t.Columns, &storage.Column{Type: storage.Int64, Ints: vals})
		case []string:
			t.Schema = append(t.Schema, storage.ColumnDef{Name: cn, Type: storage.String})
			t.Columns = append(t.Columns, &storage.Column{Type: storage.String, Strings: vals})
		}
	}
	return t
}

func TestFreezeEncodingSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 4000
	lowCardF := make([]float64, n) // quantized → dict
	highCardF := make([]float64, n)
	nanF := make([]float64, n)
	walkI := make([]int64, n) // narrow range → for
	hugeI := make([]int64, n) // distinct values past ±2^52 → plain
	cat := make([]string, n)  // low cardinality → dict
	names := []string{"alpha", "beta", "gamma", "delta"}
	for i := range lowCardF {
		lowCardF[i] = float64(rng.Intn(100)) / 100
		highCardF[i] = rng.NormFloat64()
		nanF[i] = rng.NormFloat64()
		walkI[i] = int64(1000 + rng.Intn(512))
		hugeI[i] = (int64(1) << 53) + int64(i)*4096
		cat[i] = names[rng.Intn(len(names))]
	}
	nanF[n/2] = math.NaN()

	tbl := rawTable("sel", map[string]interface{}{
		"lowf": lowCardF, "highf": highCardF, "nanf": nanF,
		"walk": walkI, "huge": hugeI, "cat": cat,
	}, []string{"lowf", "highf", "nanf", "walk", "huge", "cat"})
	frozen, err := Freeze(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Encoding{
		"lowf": Dict, "highf": Plain, "nanf": Plain,
		"walk": ForPacked, "huge": Plain, "cat": Dict,
	}
	for cn, enc := range want {
		col, ok := Of(frozen.Column(cn))
		if !ok {
			t.Fatalf("column %q not encoded", cn)
		}
		if col.Encoding() != enc {
			t.Fatalf("column %q: encoding %v, want %v", cn, col.Encoding(), enc)
		}
	}
	if !IsFrozen(frozen) {
		t.Fatal("IsFrozen(frozen) = false")
	}
	if IsFrozen(tbl) {
		t.Fatal("IsFrozen(raw) = true")
	}

	// Frozen reads are bit-identical through the storage surface.
	for _, cn := range []string{"lowf", "highf", "nanf", "walk", "huge", "cat"} {
		raw, froze := tbl.Column(cn), frozen.Column(cn)
		if raw.Len() != froze.Len() {
			t.Fatalf("column %q: Len %d vs %d", cn, raw.Len(), froze.Len())
		}
		for i := 0; i < n; i++ {
			a, b := raw.Value(i), froze.Value(i)
			if a.Type != b.Type || a.S != b.S ||
				math.Float64bits(a.F) != math.Float64bits(b.F) || a.I != b.I {
				t.Fatalf("column %q row %d: %v vs %v", cn, i, a, b)
			}
		}
	}

	// Idempotent: refreezing shares the encoded columns.
	again, err := Freeze(frozen, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frozen.Columns {
		if again.Columns[i] != frozen.Columns[i] {
			t.Fatalf("refreeze rebuilt column %d", i)
		}
	}

	// Frozen tables refuse appends.
	if err := frozen.AppendRow(storage.NewFloat(1), storage.NewFloat(1), storage.NewFloat(1),
		storage.NewInt(1), storage.NewInt(1), storage.NewString("x")); err == nil {
		t.Fatal("AppendRow on a frozen table succeeded")
	}

	st := StatsOf(frozen)
	if st.Rows != n || len(st.Columns) != 6 {
		t.Fatalf("StatsOf: rows=%d cols=%d", st.Rows, len(st.Columns))
	}
	if st.Ratio <= 1 {
		t.Fatalf("StatsOf ratio %v, want > 1 for this mostly-compressible table", st.Ratio)
	}
	var total int64
	for _, cs := range st.Columns {
		if cs.Bytes <= 0 || cs.PlainBytes <= 0 {
			t.Fatalf("column %q: bytes=%d plain=%d", cs.Name, cs.Bytes, cs.PlainBytes)
		}
		total += cs.Bytes
	}
	if total != st.EncodedBytes {
		t.Fatalf("EncodedBytes %d != column sum %d", st.EncodedBytes, total)
	}
}

// TestEncodeFloatsEarlyDecisionMatchesFullCount pins the early exit of
// encodeFloats: for the float fixtures of the differential and snapshot
// suites (dictionary, plain, NaN-bearing, ±0.0 and ±Inf entries), and for
// every cardinality of a small column (so the exact row where a
// dictionary stops paying is crossed), and for 1<<16-row columns where the
// hashed lower bound (bucketsReach) has room to engage, the encoding
// chosen is the one the full distinct count followed by the byte test
// would choose. The all-distinct columns, small-integer floats among them,
// must also be rejected by the lower bound alone, without the map.
func TestEncodeFloatsEarlyDecisionMatchesFullCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string][]float64{"empty": nil}
	diffCols, _ := genColumns(rng, 5000, true)
	for _, dc := range diffCols[:2] {
		cases["diff/"+dc.name] = dc.fvals
	}
	snap := snapTestTable(t, 3000, 13)
	for i, def := range snap.Schema {
		if def.Type == storage.Float64 {
			cases["snap/"+def.Name] = snap.Columns[i].Floats
		}
	}
	const n = 600
	for card := 1; card <= n; card++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i%card) * 0.5
		}
		cases[fmt.Sprintf("card%d", card)] = vals
	}
	const big = 1 << 16
	breakEven := big // the largest cardinality a dictionary pays at by default
	for breakEven > 1 && float64(big*8) < DefaultMinRatio*float64(packedBytes(big, dictWidth(breakEven))+int64(breakEven)*8) {
		breakEven--
	}
	for _, card := range []int{breakEven, breakEven + 1} {
		vals := make([]float64, big)
		for i := range vals {
			vals[i] = float64(i%card) * 0.37
		}
		cases[fmt.Sprintf("big/card%d", card)] = vals
	}
	distinct := make([]float64, big)
	smallInts := make([]float64, big)
	for i := range distinct {
		distinct[i] = rng.Float64()
		smallInts[i] = float64(i + 1)
	}
	cases["big/distinct"] = distinct
	cases["big/distinct+NaN"] = append(append([]float64(nil), distinct...), math.NaN())
	cases["big/small-ints"] = smallInts
	bounded := []string{"big/distinct", "big/distinct+NaN", "big/small-ints"}
	for _, name := range bounded {
		vals := cases[name]
		o := (&Options{}).normalized()
		if !bucketsReach(wordsOf(vals), dictLimit(len(vals), math.MaxInt64, &o), true) {
			t.Errorf("%s: the hashed lower bound did not rule the dictionary out", name)
		}
	}
	opts := []Options{{}, {MinRatio: 1.01}, {MinRatio: 3}, {MaxDictCard: 50}}
	for name, vals := range cases {
		for _, o := range opts {
			o = o.normalized()
			distinct := map[uint64]struct{}{}
			want := Dict
			for _, v := range vals {
				if math.IsNaN(v) {
					want = Plain
				}
				distinct[math.Float64bits(v)] = struct{}{}
			}
			card := len(distinct)
			plainBytes := int64(len(vals)) * 8
			dictBytes := packedBytes(len(vals), dictWidth(card)) + int64(card)*8
			if card > o.MaxDictCard || float64(plainBytes) < o.MinRatio*float64(dictBytes) {
				want = Plain
			}
			if got := encodeFloats(vals, &o).Encoding(); got != want {
				t.Errorf("%s (card %d, MinRatio %v, MaxDictCard %d): encoded %v, the full count says %v",
					name, card, o.MinRatio, o.MaxDictCard, got, want)
			}
		}
	}
}

// TestEncodeIntsEarlyDecisionMatchesFullCount is the same check for int
// columns, whose distinct count stops once a dictionary can beat neither
// plain nor frame-of-reference packing: 1<<16-row columns at the
// cardinality where a dictionary stops paying and one past it — spread
// past FOR's magnitude, so only the dictionary competes, and packed into a
// narrow span, where FOR wins — and all-distinct columns, wide and narrow.
// The chosen encoding must be the one the full distinct count followed by
// the byte comparison chooses; the all-distinct wide column must be ruled
// out by the hashed lower bound alone.
func TestEncodeIntsEarlyDecisionMatchesFullCount(t *testing.T) {
	const big = 1 << 16
	breakEven := big
	for breakEven > 1 && float64(big*8) < DefaultMinRatio*float64(dictBytes(big, breakEven)) {
		breakEven--
	}
	cases := map[string][]int64{"empty": nil}
	for _, card := range []int{breakEven, breakEven + 1} {
		wide, narrow := make([]int64, big), make([]int64, big)
		for i := range wide {
			wide[i] = int64(i%card) * 1e15
			narrow[i] = int64(i % card)
		}
		cases[fmt.Sprintf("wide/card%d", card)] = wide
		cases[fmt.Sprintf("narrow/card%d", card)] = narrow
	}
	rng := rand.New(rand.NewSource(12))
	wide, narrow := make([]int64, big), make([]int64, big)
	for i := range wide {
		wide[i] = int64(rng.Uint64())
		narrow[i] = int64(i)
	}
	cases["wide/distinct"] = wide
	cases["narrow/distinct"] = narrow
	o := (&Options{}).normalized()
	if !bucketsReach(wordsOf(wide), dictLimit(big, math.MaxInt64, &o), false) {
		t.Error("wide/distinct: the hashed lower bound did not rule the dictionary out")
	}
	for name, vals := range cases {
		for _, o := range []Options{{}, {MinRatio: 1.01}, {MinRatio: 3}, {MaxDictCard: 50}} {
			o = o.normalized()
			distinct := map[int64]struct{}{}
			minV, maxV := int64(math.MaxInt64), int64(math.MinInt64)
			for _, v := range vals {
				distinct[v] = struct{}{}
				minV, maxV = min(minV, v), max(maxV, v)
			}
			plainBytes := int64(len(vals)) * 8
			forBytes, dictB := int64(math.MaxInt64), int64(math.MaxInt64)
			if len(vals) > 0 && minV >= -forMaxMagnitude && maxV <= forMaxMagnitude && WidthFor(uint64(maxV-minV)) <= forMaxWidth {
				forBytes = packedBytes(len(vals), WidthFor(uint64(maxV-minV)))
			}
			if len(distinct) <= o.MaxDictCard {
				dictB = dictBytes(len(vals), len(distinct))
			}
			want := ForPacked
			switch best := min(forBytes, dictB); {
			case len(vals) == 0 || float64(plainBytes) < o.MinRatio*float64(best):
				want = Plain
			case dictB < forBytes:
				want = Dict
			}
			if got := encodeInts(vals, &o).Encoding(); got != want {
				t.Errorf("%s (card %d, MinRatio %v, MaxDictCard %d): encoded %v, the full count says %v",
					name, len(distinct), o.MinRatio, o.MaxDictCard, got, want)
			}
		}
	}
}

// encodeStringsFullCount is encodeStrings as it was before its early
// exit: count every distinct string, sort the dictionary, then run the byte
// test. TestEncodeStringsEarlyDecisionMatchesFullCount holds the two equal.
func encodeStringsFullCount(vals []string, o *Options) Column {
	distinct := make(map[string]uint32, 1024)
	for _, v := range vals {
		if _, ok := distinct[v]; !ok {
			if len(distinct) >= o.MaxDictCard {
				return NewPlainStrings(vals)
			}
			distinct[v] = 0
		}
	}
	dict := make([]string, 0, len(distinct))
	var dataBytes int64
	for v := range distinct {
		dict = append(dict, v)
		dataBytes += int64(len(v))
	}
	sort.Strings(dict)
	width := dictWidth(len(dict))
	c := &DictColumn{
		typ:        storage.String,
		svals:      dict,
		plainBytes: stringHeaderBytes*int64(len(vals)) + dataBytes,
		dictBytes:  stringHeaderBytes*int64(len(dict)) + dataBytes,
	}
	if float64(c.plainBytes) < o.MinRatio*float64(packedBytes(len(vals), width)+c.dictBytes) {
		return NewPlainStrings(vals)
	}
	for code, v := range dict {
		distinct[v] = uint32(code)
	}
	c.codes = packCodes(len(vals), width, o.Parallelism, func(i int) uint64 {
		return uint64(distinct[vals[i]])
	})
	return c
}

// TestEncodeStringsEarlyDecisionMatchesFullCount: over random string
// columns — short and long strings, every cardinality from one value to
// all distinct, both sides of the byte test's break-even — encodeStrings
// picks the encoding the full count picks, with the same bytes: the same
// sorted dictionary, codes and footprints.
func TestEncodeStringsEarlyDecisionMatchesFullCount(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	word := func(minLen, maxLen int) string {
		b := make([]byte, minLen+rng.Intn(maxLen-minLen+1))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	cases := map[string][]string{"empty": nil}
	for _, n := range []int{1, 7, 300, 5000} {
		for _, lens := range [][2]int{{0, 3}, {1, 8}, {40, 200}} {
			for _, card := range []int{1, 2, n / 10, n / 3, n / 2, 3 * n / 4, n} {
				if card < 1 {
					continue
				}
				pool := make([]string, card)
				for i := range pool {
					pool[i] = word(lens[0], lens[1])
				}
				vals := make([]string, n)
				for i := range vals {
					vals[i] = pool[rng.Intn(card)]
				}
				cases[fmt.Sprintf("n%d/len%d-%d/card%d", n, lens[0], lens[1], card)] = vals
			}
		}
	}
	// Every row distinct; three long values; and distinct values that end
	// the byte test early followed by repeats of them, which the plain
	// footprint must count once each.
	distinct, low, repeats := make([]string, 3000), make([]string, 3000), make([]string, 3000)
	for i := range distinct {
		distinct[i] = fmt.Sprintf("row-%05d", i)
		low[i] = strings.Repeat(string(rune('a'+i%3)), 64)
		repeats[i] = fmt.Sprintf("v%04d", i%200)
		if i >= 1500 {
			repeats[i] = fmt.Sprintf("v%04d", (3000-i)%200)
		}
	}
	cases["all-distinct"], cases["low-card"], cases["early-exit-then-repeats"] = distinct, low, repeats
	// Either side of the break-even cardinality of fixed-length strings.
	const n, strLen = 4096, 6
	for card := 1; card <= n; card++ {
		data := int64(card * strLen)
		if float64(stringHeaderBytes*n+data) < DefaultMinRatio*float64(packedBytes(n, dictWidth(card))+stringHeaderBytes*int64(card)+data) {
			for _, c := range []int{card - 1, card} {
				vals := make([]string, n)
				for i := range vals {
					vals[i] = fmt.Sprintf("%06d", i%c)
				}
				cases[fmt.Sprintf("break-even/card%d", c)] = vals
			}
			break
		}
	}
	encodings := map[Encoding]int{}
	for name, vals := range cases {
		for _, o := range []Options{{}, {MinRatio: 1.01}, {MinRatio: 3}, {MinRatio: 0.5}, {MaxDictCard: 50}} {
			o = o.normalized()
			want, got := encodeStringsFullCount(vals, &o), encodeStrings(vals, &o)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (MinRatio %v, MaxDictCard %d): encoded %v, the full count %v",
					name, o.MinRatio, o.MaxDictCard, got.Encoding(), want.Encoding())
			}
			encodings[want.Encoding()]++
		}
	}
	if encodings[Dict] == 0 || encodings[Plain] == 0 {
		t.Fatalf("the columns reach only %v", encodings)
	}
}

func TestFreezeSignedZeroExactness(t *testing.T) {
	vals := []float64{0, -0.0, 1, -0.0, 0, 2, 0, -0.0}
	tbl := rawTable("zeros", map[string]interface{}{"v": vals}, []string{"v"})
	frozen, err := Freeze(tbl, &Options{MinRatio: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := Of(frozen.Column("v"))
	if col.Encoding() != Dict {
		t.Fatalf("encoding %v, want Dict", col.Encoding())
	}
	for i, want := range vals {
		got := frozen.Column("v").Float(i)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: %v (bits %x) != %v (bits %x)", i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// A range containing zero selects both signed-zero codes.
	bm := NewBitmap(len(vals))
	col.FilterRange(-0.5, 0.5, 0, len(vals), bm, false)
	for i, v := range vals {
		if bm.Get(i) != (v == 0) {
			t.Fatalf("row %d (v=%v): selected=%v", i, v, bm.Get(i))
		}
	}
}

func TestStorageFloatPanicsOnText(t *testing.T) {
	col := &storage.Column{Type: storage.String, Strings: []string{"a"}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Float on a TEXT column did not panic")
			}
		}()
		col.Float(0)
	}()
	if _, err := col.FloatAt(0); err == nil {
		t.Fatal("FloatAt on a TEXT column returned no error")
	}
	num := &storage.Column{Type: storage.Float64, Floats: []float64{2.5}}
	if v, err := num.FloatAt(0); err != nil || v != 2.5 {
		t.Fatalf("FloatAt = %v, %v", v, err)
	}
}

// TestViewOf pins the view contract: the frozen encoding when there is
// one, otherwise one cached zero-copy wrapper per unfrozen numeric column
// (same pointer from every call, aliasing the raw slice), none for TEXT,
// a fresh one after an append, and StatsOf listing exactly the viewed
// columns without building any.
func TestViewOf(t *testing.T) {
	tbl := storage.NewTable("t", storage.Schema{
		{Name: "f", Type: storage.Float64},
		{Name: "i", Type: storage.Int64},
		{Name: "s", Type: storage.String},
	})
	for r := 0; r < 100; r++ {
		tbl.MustAppendRow(storage.NewFloat(float64(r)/4), storage.NewInt(int64(r)), storage.NewString("x"))
	}
	if st := StatsOf(tbl); len(st.Columns) != 0 {
		t.Fatalf("StatsOf before any view lists %d columns", len(st.Columns))
	}
	f, ok := ViewOf(tbl.Column("f"))
	if !ok || f.Encoding() != Plain || f.Len() != 100 {
		t.Fatalf("float view: ok=%v %v", ok, f)
	}
	if &f.(*PlainFloats).RawFloats()[0] != &tbl.Column("f").Floats[0] {
		t.Fatal("float view copied the slice")
	}
	if again, _ := ViewOf(tbl.Column("f")); again != f {
		t.Fatal("second ViewOf built a second view")
	}
	if _, ok := ViewOf(tbl.Column("s")); ok {
		t.Fatal("ViewOf answered for an unfrozen TEXT column")
	}
	if _, ok := ViewOf(nil); ok {
		t.Fatal("ViewOf answered for a nil column")
	}

	dst := NewBitmap(100)
	f.FilterRange(5, 10, 0, 100, dst, false)
	st := StatsOf(tbl)
	if len(st.Columns) != 1 || st.Columns[0].Name != "f" || st.Columns[0].Encoding != "plain" ||
		st.Columns[0].Ratio != 1 || st.Columns[0].ZoneBytes != 32 || st.Columns[0].ZoneWordsEvaluated == 0 {
		t.Fatalf("StatsOf after one filter on f: %+v", st)
	}

	tbl.MustAppendRow(storage.NewFloat(99), storage.NewInt(100), storage.NewString("y"))
	if g, _ := ViewOf(tbl.Column("f")); g == f || g.Len() != 101 || g.Float(100) != 99 {
		t.Fatalf("view after append: same=%v len=%d", g == f, g.Len())
	}
	iv, ok := ViewOf(tbl.Column("i"))
	if !ok || iv.Type() != storage.Int64 || iv.Float(100) != 100 {
		t.Fatalf("int view: ok=%v %v", ok, iv)
	}

	frozen, err := Freeze(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, col := range frozen.Columns {
		if v, ok := ViewOf(col); !ok || v != col.Enc {
			t.Fatalf("frozen column %d: ViewOf is not its encoding", i)
		}
	}
}
