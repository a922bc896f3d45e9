package colstore

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/storage"
)

// snapTestTable builds a table covering every encoding Freeze can pick:
// a low-cardinality float (dict, with NaN-free ±0.0 entries), a
// high-cardinality float (plain), a dense int run (for-packed), a
// low-cardinality string (dict), and a NaN-containing float (plain).
func snapTestTable(t *testing.T, rows int, seed int64) *storage.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := storage.NewTable("snaptest", storage.Schema{
		{Name: "qf", Type: storage.Float64},
		{Name: "hf", Type: storage.Float64},
		{Name: "seq", Type: storage.Int64},
		{Name: "cat", Type: storage.String},
		{Name: "nanf", Type: storage.Float64},
	})
	cats := []string{"alpha", "beta", "gamma", "", "delta-with-a-longer-name"}
	quant := []float64{-2.5, -0.0, 0.0, 1.25, 3.75, math.Inf(-1), math.Inf(1)}
	for i := 0; i < rows; i++ {
		nan := rng.Float64()
		if i%17 == 0 {
			nan = math.NaN()
		}
		tbl.MustAppendRow(
			storage.NewFloat(quant[rng.Intn(len(quant))]),
			storage.NewFloat(rng.NormFloat64()*1e6),
			storage.NewInt(int64(1000+i*3)),
			storage.NewString(cats[rng.Intn(len(cats))]),
			storage.NewFloat(nan),
		)
	}
	return tbl
}

// requireSameTable asserts every value of b reads back bit-identical to a
// through the storage surface — the byte-compare the snapshot round trip
// must pass, including NaN and ±0.0 bit patterns.
func requireSameTable(t *testing.T, a, b *storage.Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("rows: %d vs %d", a.NumRows(), b.NumRows())
	}
	if len(a.Columns) != len(b.Columns) {
		t.Fatalf("columns: %d vs %d", len(a.Columns), len(b.Columns))
	}
	for ci := range a.Columns {
		ca, cb := a.Columns[ci], b.Columns[ci]
		if ca.Type != cb.Type {
			t.Fatalf("column %d type: %v vs %v", ci, ca.Type, cb.Type)
		}
		for i := 0; i < ca.Len(); i++ {
			va, vb := ca.Value(i), cb.Value(i)
			switch ca.Type {
			case storage.Float64:
				if math.Float64bits(va.F) != math.Float64bits(vb.F) {
					t.Fatalf("column %d row %d: %x vs %x", ci, i, math.Float64bits(va.F), math.Float64bits(vb.F))
				}
			case storage.Int64:
				if va.I != vb.I {
					t.Fatalf("column %d row %d: %d vs %d", ci, i, va.I, vb.I)
				}
			default:
				if va.S != vb.S {
					t.Fatalf("column %d row %d: %q vs %q", ci, i, va.S, vb.S)
				}
			}
		}
	}
}

func writeTestSnapshot(t *testing.T, tbl *storage.Table, fence map[string]string, sections []SnapshotSection) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.snap")
	if err := WriteSnapshot(path, tbl, fence, sections); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return path
}

func TestSnapshotRoundTripFrozen(t *testing.T) {
	tbl := snapTestTable(t, 4000, 7)
	frozen, err := Freeze(tbl, &Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The test table must actually exercise dict, for-packed, AND plain, or
	// the round trip proves less than it claims.
	seen := map[Encoding]bool{}
	for _, col := range frozen.Columns {
		enc, ok := Of(col)
		if !ok {
			t.Fatal("freeze left an unencoded column")
		}
		seen[enc.Encoding()] = true
	}
	for _, e := range []Encoding{Plain, Dict, ForPacked} {
		if !seen[e] {
			t.Fatalf("test table never produced %s encoding", e)
		}
	}

	fence := map[string]string{"dataset": "snaptest", "seed": "7"}
	sums := []int64{0, 1, 2, 3, 1 << 40}
	path := writeTestSnapshot(t, frozen, fence, []SnapshotSection{
		{Name: "prefix", Int64s: sums},
		{Name: "dims", JSON: []byte(`[{"Name":"qf","Bins":20}]`)},
	})
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer snap.Close()

	requireSameTable(t, tbl, snap.Table())
	if !IsFrozen(snap.Table()) {
		t.Fatal("snapshot table is not fully encoded")
	}
	// Encodings must survive, not just values: a dict column that came back
	// plain would serve correct answers slowly and silently.
	for ci, col := range frozen.Columns {
		want, _ := Of(col)
		got, _ := Of(snap.Table().Columns[ci])
		if want.Encoding() != got.Encoding() {
			t.Fatalf("column %d encoding %s came back %s", ci, want.Encoding(), got.Encoding())
		}
	}
	if got := snap.Fence(); got["dataset"] != "snaptest" || got["seed"] != "7" {
		t.Fatalf("fence round trip: %v", got)
	}
	gotSums, ok := snap.SectionInt64("prefix")
	if !ok || len(gotSums) != len(sums) {
		t.Fatalf("prefix section: ok=%v len=%d", ok, len(gotSums))
	}
	for i := range sums {
		if gotSums[i] != sums[i] {
			t.Fatalf("prefix[%d] = %d, want %d", i, gotSums[i], sums[i])
		}
	}
	if js, ok := snap.SectionJSON("dims"); !ok || string(js) != `[{"Name":"qf","Bins":20}]` {
		t.Fatalf("dims section: ok=%v %q", ok, js)
	}
	if _, ok := snap.SectionInt64("dims"); ok {
		t.Fatal("JSON section answered as int64")
	}
	if _, ok := snap.SectionInt64("missing"); ok {
		t.Fatal("missing section answered")
	}
}

func TestSnapshotRoundTripUnfrozen(t *testing.T) {
	tbl := snapTestTable(t, 500, 11)
	path := writeTestSnapshot(t, tbl, nil, nil)
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer snap.Close()
	requireSameTable(t, tbl, snap.Table())
}

func TestSnapshotFilterKernelsOverMapped(t *testing.T) {
	// The mapped columns must not only read back — the vectorized kernels
	// must run over them (the zero-copy slices alias the file), agreeing
	// with the original frozen columns bit for bit.
	tbl := snapTestTable(t, 3000, 13)
	frozen, err := Freeze(tbl, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := writeTestSnapshot(t, frozen, nil, nil)
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	n := tbl.NumRows()
	for ci, col := range frozen.Columns {
		if col.Type == storage.String {
			continue
		}
		want, _ := Of(col)
		got, _ := Of(snap.Table().Columns[ci])
		a, b := NewBitmap(n), NewBitmap(n)
		want.FilterRange(-1e5, 1e5, 0, n, a, false)
		got.FilterRange(-1e5, 1e5, 0, n, b, false)
		for i := 0; i < n; i++ {
			if a.Get(i) != b.Get(i) {
				t.Fatalf("column %d row %d: mapped kernel diverged", ci, i)
			}
		}
	}
}

// zonesBuilt reports whether col's zone bounds exist yet, without
// building them.
func zonesBuilt(col Column) bool {
	switch c := col.(type) {
	case *PlainFloats:
		return c.zm.mm != nil
	case *PlainInts:
		return c.zm.mm != nil
	case *ForColumn:
		return c.zm.mm != nil
	case *DictColumn:
		return c.zm.mm != nil
	}
	return false
}

// TestSnapshotZonesBuiltOnFirstFilter: zone maps are not in the file and
// not built by OpenSnapshot or by a stats scrape (warm start stays
// O(columns)); the first range filter builds them, and the mapped column
// then filters exactly like its heap twin, store and AND passes alike.
func TestSnapshotZonesBuiltOnFirstFilter(t *testing.T) {
	tbl := snapTestTable(t, 3000, 13)
	frozen, err := Freeze(tbl, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(writeTestSnapshot(t, frozen, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	n := tbl.NumRows()
	st := StatsOf(snap.Table())
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for ci, col := range frozen.Columns {
		if col.Type == storage.String {
			continue
		}
		heap, _ := Of(col)
		mapped, _ := Of(snap.Table().Columns[ci])
		if !zonesBuilt(heap) {
			t.Fatalf("column %d: Freeze did not build the zones", ci)
		}
		if zonesBuilt(mapped) {
			t.Fatalf("column %d: zones built before the first filter", ci)
		}
		if cs := st.Columns[ci]; cs.ZoneBytes != zoneBytes(n) || cs.ZoneWordsEvaluated != 0 {
			t.Fatalf("column %d: stats before any filter: %+v", ci, cs)
		}
		for _, r := range zonedRanges(rand.New(rand.NewSource(int64(ci))), zonedCase{col: heap}) {
			a, b := NewBitmap(n), NewBitmap(n)
			heap.FilterRange(-1e5, 1e5, 0, n, a, false)
			mapped.FilterRange(-1e5, 1e5, 0, n, b, false)
			heap.FilterRange(r[0], r[1], 0, n, a, true)
			mapped.FilterRange(r[0], r[1], 0, n, b, true)
			if !slices.Equal(a.words, b.words) {
				t.Fatalf("column %d [%v, %v]: mapped column filters differently from its heap twin", ci, r[0], r[1])
			}
		}
		if !slices.EqualFunc(ZonesOf(mapped).mm, ZonesOf(heap).mm, sameBits) {
			t.Fatalf("column %d: mapped zone bounds differ from the heap twin's", ci)
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	tbl := snapTestTable(t, 200, 3)
	frozen, err := Freeze(tbl, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := writeTestSnapshot(t, frozen, map[string]string{"k": "v"}, []SnapshotSection{{Name: "s", Int64s: []int64{1, 2}}})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		buf := append([]byte(nil), orig...)
		buf = mutate(buf)
		p := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, err := OpenSnapshot(p); err == nil {
			snap.Close()
			t.Fatalf("%s: corrupted snapshot accepted", name)
		}
	}

	check("truncated-header", func(b []byte) []byte { return b[:16] })
	check("truncated-half", func(b []byte) []byte { return b[:len(b)/2] })
	check("truncated-1", func(b []byte) []byte { return b[:len(b)-1] })
	check("extended", func(b []byte) []byte { return append(b, 0) })
	check("bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	check("bad-version", func(b []byte) []byte { b[8] ^= 0xff; return b })
	check("empty", func(b []byte) []byte { return b[:0] })
	// Every single-byte flip past the header must be caught by the CRC (a
	// header flip is caught by magic/version/length reconciliation or the
	// stored-checksum comparison).
	stride := len(orig)/97 + 1
	for off := 0; off < len(orig); off += stride {
		off := off
		check("flip", func(b []byte) []byte { b[off] ^= 0x01; return b })
	}
}

func TestSnapshotRejectsMissingFile(t *testing.T) {
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSnapshotAtomicOverwrite(t *testing.T) {
	// Two sequential writes to one path must leave a single valid file and
	// no temp litter — the rename-into-place contract concurrent replica
	// writers rely on.
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.snap")
	tbl := snapTestTable(t, 100, 5)
	for i := 0; i < 2; i++ {
		if err := WriteSnapshot(path, tbl, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "shard.snap" {
		t.Fatalf("directory not clean after writes: %v", entries)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	requireSameTable(t, tbl, snap.Table())
}

// FuzzSnapshotRoundTrip freezes an arbitrary table (bytes drive row count,
// float values including NaN/±0.0, int values, and string shapes), writes
// a snapshot, reopens it, and byte-compares every value — then flips one
// arbitrary byte and requires the reopen to fail.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(40), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(99), uint8(0), []byte{})
	f.Add(int64(-7), uint8(200), []byte{0xff, 0x00, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, seed int64, rowsByte uint8, raw []byte) {
		rows := int(rowsByte)
		rng := rand.New(rand.NewSource(seed))
		tbl := storage.NewTable("fuzz", storage.Schema{
			{Name: "f", Type: storage.Float64},
			{Name: "i", Type: storage.Int64},
			{Name: "s", Type: storage.String},
		})
		specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5}
		for r := 0; r < rows; r++ {
			var fv float64
			if len(raw) > 0 && raw[r%len(raw)]%3 == 0 {
				fv = specials[rng.Intn(len(specials))]
			} else {
				fv = rng.NormFloat64()
			}
			var sv string
			if len(raw) > 0 {
				k := r % len(raw)
				sv = string(raw[k : k+1+rng.Intn(len(raw)-k)])
			}
			tbl.MustAppendRow(storage.NewFloat(fv), storage.NewInt(rng.Int63n(1<<20)-1<<19), storage.NewString(sv))
		}
		frozen, err := Freeze(tbl, &Options{Parallelism: 1, MaxDictCard: 64})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := WriteSnapshot(path, frozen, map[string]string{"seed": "x"}, nil); err != nil {
			t.Fatalf("write: %v", err)
		}
		snap, err := OpenSnapshot(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		requireSameTable(t, tbl, snap.Table())
		snap.Close()

		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) > 0 {
			off := int(uint(seed) % uint(len(buf)))
			buf[off] ^= 0x40
			bad := filepath.Join(t.TempDir(), "bad.snap")
			if err := os.WriteFile(bad, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := OpenSnapshot(bad); err == nil {
				s.Close()
				t.Fatalf("flip at %d accepted", off)
			}
		}
	})
}
