package storage

import (
	"testing"
	"testing/quick"
)

func testTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("t", Schema{
		{Name: "id", Type: Int64},
		{Name: "score", Type: Float64},
		{Name: "name", Type: String},
	})
	for i := 0; i < 100; i++ {
		tbl.MustAppendRow(NewInt(int64(i)), NewFloat(float64(100-i)), NewString(string(rune('a'+i%26))))
	}
	return tbl
}

func TestTableBasics(t *testing.T) {
	tbl := testTable(t)
	if tbl.NumRows() != 100 {
		t.Fatalf("NumRows = %d, want 100", tbl.NumRows())
	}
	row := tbl.Row(3)
	if row[0].I != 3 || row[1].F != 97 || row[2].S != "d" {
		t.Errorf("Row(3) = %v", row)
	}
	if tbl.Column("missing") != nil {
		t.Error("Column(missing) != nil")
	}
	if tbl.Schema.ColumnIndex("score") != 1 {
		t.Error("ColumnIndex(score) != 1")
	}
}

func TestAppendRowErrors(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "id", Type: Int64}})
	if err := tbl.AppendRow(NewInt(1), NewInt(2)); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tbl.AppendRow(NewString("x")); err == nil {
		t.Error("wrong type accepted")
	}
	// int → float widening allowed
	ftbl := NewTable("f", Schema{{Name: "v", Type: Float64}})
	if err := ftbl.AppendRow(NewInt(7)); err != nil {
		t.Errorf("int→float widening rejected: %v", err)
	}
	if got := ftbl.Column("v").Float(0); got != 7 {
		t.Errorf("widened value = %v, want 7", got)
	}
}

func TestPages(t *testing.T) {
	tbl := testTable(t)
	tbl.PageRows = 30
	if got := tbl.NumPages(); got != 4 {
		t.Errorf("NumPages = %d, want 4", got)
	}
	if tbl.PageOf(0) != 0 || tbl.PageOf(29) != 0 || tbl.PageOf(30) != 1 || tbl.PageOf(99) != 3 {
		t.Error("PageOf boundaries wrong")
	}
}

func TestMinMax(t *testing.T) {
	tbl := testTable(t)
	lo, hi, ok := tbl.MinMax("score")
	if !ok || lo != 1 || hi != 100 {
		t.Errorf("MinMax(score) = %v,%v,%v want 1,100,true", lo, hi, ok)
	}
	if _, _, ok := tbl.MinMax("name"); ok {
		t.Error("MinMax on string column returned ok")
	}
	empty := NewTable("e", Schema{{Name: "x", Type: Int64}})
	if _, _, ok := empty.MinMax("x"); ok {
		t.Error("MinMax on empty table returned ok")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewString("a"), NewString("b"), -1},
		{NewInt(2), NewFloat(1.5), 1},  // cross numeric
		{NewFloat(2.0), NewInt(2), 0},  // cross numeric equal
		{NewInt(1), NewFloat(1.5), -1}, // cross numeric
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if !NewInt(5).Equal(NewFloat(5)) {
		t.Error("Equal(5, 5.0) = false")
	}
}

func TestValueCompareMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("comparing int to string did not panic")
		}
	}()
	NewInt(1).Compare(NewString("x"))
}

func TestValueStrings(t *testing.T) {
	if NewInt(42).String() != "42" || NewFloat(1.5).String() != "1.5" || NewString("hi").String() != "hi" {
		t.Error("Value.String formatting wrong")
	}
	if Int64.String() != "BIGINT" || Float64.String() != "DOUBLE" || String.String() != "TEXT" {
		t.Error("Type.String wrong")
	}
}

func TestBufferPoolLRU(t *testing.T) {
	p := NewBufferPool(2)
	a, b, c := PageID{"t", 0}, PageID{"t", 1}, PageID{"t", 2}
	if p.Touch(a) {
		t.Error("first touch of a hit")
	}
	if p.Touch(b) {
		t.Error("first touch of b hit")
	}
	if !p.Touch(a) {
		t.Error("second touch of a missed")
	}
	// a is now MRU; touching c must evict b.
	p.Touch(c)
	if p.Contains(b) {
		t.Error("b not evicted")
	}
	if !p.Contains(a) || !p.Contains(c) {
		t.Error("a or c evicted wrongly")
	}
	hits, misses := p.Stats()
	if hits != 1 || misses != 3 {
		t.Errorf("stats = %d hits %d misses, want 1, 3", hits, misses)
	}
	if got := p.HitRate(); got != 0.25 {
		t.Errorf("HitRate = %v, want 0.25", got)
	}
}

func TestBufferPoolZeroCapacity(t *testing.T) {
	p := NewBufferPool(0)
	id := PageID{"t", 0}
	if p.Touch(id) || p.Touch(id) {
		t.Error("zero-capacity pool produced a hit")
	}
	if p.Len() != 0 {
		t.Error("zero-capacity pool retained pages")
	}
}

func TestBufferPoolReset(t *testing.T) {
	p := NewBufferPool(4)
	p.Touch(PageID{"t", 0})
	p.Reset()
	if p.Len() != 0 {
		t.Error("Reset left pages")
	}
	if h, m := p.Stats(); h != 0 || m != 0 {
		t.Error("Reset left counters")
	}
	if p.HitRate() != 0 {
		t.Error("HitRate after reset != 0")
	}
}

// Property: pool never exceeds capacity, and hits+misses equals touches.
func TestBufferPoolProperty(t *testing.T) {
	f := func(cap8 uint8, accesses []uint8) bool {
		capacity := int(cap8%16) + 1
		p := NewBufferPool(capacity)
		for _, a := range accesses {
			p.Touch(PageID{"t", int(a % 32)})
			if p.Len() > capacity {
				return false
			}
		}
		h, m := p.Stats()
		return h+m == int64(len(accesses))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
