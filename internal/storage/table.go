package storage

import (
	"fmt"
	"sync/atomic"
)

// ColumnDef describes one column of a schema.
type ColumnDef struct {
	Name string
	Type Type
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// ColumnIndex returns the position of the named column, or -1 if absent.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Encoded is an immutable, compressed column representation (implemented
// by internal/colstore). A Column with a non-nil Enc stores no raw slices;
// reads route through this interface, so every consumer of Value/Float
// works unchanged over frozen tables. Hot paths type-assert the concrete
// value for kernel capabilities (vectorized filters, packed-code access).
type Encoded interface {
	// Len returns the row count.
	Len() int
	// Value returns row i as a storage Value, bit-identical to the value
	// the column was encoded from.
	Value(i int) Value
	// Float returns row i as float64; it must panic for string-typed
	// encodings exactly like Column.Float does, so encoded and plain reads
	// cannot diverge on type confusion.
	Float(i int) float64
	// EncodedBytes is the resident byte footprint of the encoded form.
	EncodedBytes() int64
	// EncodingName names the encoding ("plain", "dict", "for") for stats.
	EncodingName() string
}

// Column is one typed column of values stored contiguously. Only the slice
// matching Type is populated — unless Enc is set, in which case the column
// is frozen: the slices are nil and all reads route through the encoding.
type Column struct {
	Type    Type
	Ints    []int64
	Floats  []float64
	Strings []string

	// Enc, when non-nil, is the column's frozen encoded representation.
	// Frozen columns are immutable: append returns an error.
	Enc Encoded

	// view caches the zero-copy Encoded wrapper scans read an unfrozen
	// column's raw slice through (colstore.ViewOf builds it). It holds the
	// slice header of the moment it was built, so append drops it.
	view atomic.Pointer[Encoded]
}

// View returns the cached scan view of an unfrozen column, or nil when
// none has been built since the last append.
func (c *Column) View() Encoded {
	if p := c.view.Load(); p != nil {
		return *p
	}
	return nil
}

// CacheView installs v as the column's scan view unless a concurrent
// caller already installed one, and returns the view that is cached.
func (c *Column) CacheView(v Encoded) Encoded {
	if c.view.CompareAndSwap(nil, &v) {
		return v
	}
	return c.View()
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	if c.Enc != nil {
		return c.Enc.Len()
	}
	switch c.Type {
	case Int64:
		return len(c.Ints)
	case Float64:
		return len(c.Floats)
	default:
		return len(c.Strings)
	}
}

// Value returns the value at row i.
func (c *Column) Value(i int) Value {
	if c.Enc != nil {
		return c.Enc.Value(i)
	}
	switch c.Type {
	case Int64:
		return NewInt(c.Ints[i])
	case Float64:
		return NewFloat(c.Floats[i])
	default:
		return NewString(c.Strings[i])
	}
}

// Float returns the value at row i as a float64. String columns have no
// numeric form: asking for one is always a caller bug (every scan path
// type-checks columns before reading them as floats), and silently
// returning 0 would let an encoded and an unencoded scan diverge without
// an error — so it panics, the same contract as Value.Compare on
// mismatched types. Use FloatAt for a non-panicking error path.
func (c *Column) Float(i int) float64 {
	if c.Type == String {
		panic("storage: Float on a TEXT column (string columns have no numeric form; use Value)")
	}
	if c.Enc != nil {
		return c.Enc.Float(i)
	}
	if c.Type == Int64 {
		return float64(c.Ints[i])
	}
	return c.Floats[i]
}

// FloatAt is Float with an explicit error path for string columns, for
// callers handling externally supplied column names.
func (c *Column) FloatAt(i int) (float64, error) {
	if c.Type == String {
		return 0, fmt.Errorf("storage: column is TEXT, not numeric")
	}
	return c.Float(i), nil
}

// append adds a value, which must match the column type.
func (c *Column) append(v Value) error {
	if c.Enc != nil {
		return fmt.Errorf("storage: column is frozen (encoded columns are immutable)")
	}
	if c.view.Load() != nil {
		c.view.Store(nil) // the view wraps the pre-append slice
	}
	if v.Type != c.Type {
		// Permit int → float widening so generators can be sloppy about
		// literal types.
		if c.Type == Float64 && v.Type == Int64 {
			c.Floats = append(c.Floats, float64(v.I))
			return nil
		}
		return fmt.Errorf("storage: appending %v value to %v column", v.Type, c.Type)
	}
	switch c.Type {
	case Int64:
		c.Ints = append(c.Ints, v.I)
	case Float64:
		c.Floats = append(c.Floats, v.F)
	default:
		c.Strings = append(c.Strings, v.S)
	}
	return nil
}

// Table is an append-only columnar table. Rows are addressed by dense row
// IDs in [0, NumRows).
type Table struct {
	Name    string
	Schema  Schema
	Columns []*Column

	// PageRows is the number of rows per storage page, used by the disk
	// profile for I/O accounting. Defaults to DefaultPageRows.
	PageRows int

	// runs is the table's cell-run directory, when one was attached.
	runs RunDirectory
}

// RunDirectory is derived per-table data that scans may consult: the
// table cut into runs of consecutive rows with per-run column bounds
// (implemented by internal/colstore). It describes the rows of the moment
// it was built, so an append drops it.
type RunDirectory interface {
	// Len returns the number of runs.
	Len() int
}

// Runs returns the table's run directory, or nil when it has none.
func (t *Table) Runs() RunDirectory { return t.runs }

// SetRuns attaches d as the table's run directory (nil detaches it). Set
// it before the table is shared: queries read it without locking.
func (t *Table) SetRuns(d RunDirectory) { t.runs = d }

// DefaultPageRows is the default page granularity: with ~100-byte tuples
// this approximates an 8 KiB heap page.
const DefaultPageRows = 64

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	t := &Table{Name: name, Schema: schema, PageRows: DefaultPageRows}
	t.Columns = make([]*Column, len(schema))
	for i, def := range schema {
		t.Columns[i] = &Column{Type: def.Type}
	}
	return t
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// pageRows returns the effective page granularity without mutating the
// table — NumPages/PageOf are called from concurrent queries, so defaulting
// a zero PageRows in place would be a data race.
func (t *Table) pageRows() int {
	if t.PageRows <= 0 {
		return DefaultPageRows
	}
	return t.PageRows
}

// NumPages returns the number of storage pages the table occupies.
func (t *Table) NumPages() int {
	pr := t.pageRows()
	return (t.NumRows() + pr - 1) / pr
}

// PageOf returns the page ID holding the given row.
func (t *Table) PageOf(row int) int {
	return row / t.pageRows()
}

// AppendRow appends one row. The number and types of values must match the
// schema.
func (t *Table) AppendRow(values ...Value) error {
	if len(values) != len(t.Schema) {
		return fmt.Errorf("storage: AppendRow got %d values for %d columns", len(values), len(t.Schema))
	}
	t.runs = nil // the directory describes the rows before this one
	for i, v := range values {
		if err := t.Columns[i].append(v); err != nil {
			return fmt.Errorf("column %q: %w", t.Schema[i].Name, err)
		}
	}
	return nil
}

// MustAppendRow appends one row and panics on schema mismatch; generators
// with static schemas use it to keep construction terse.
func (t *Table) MustAppendRow(values ...Value) {
	if err := t.AppendRow(values...); err != nil {
		panic(err)
	}
}

// Column returns the named column, or nil if absent.
func (t *Table) Column(name string) *Column {
	i := t.Schema.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	return t.Columns[i]
}

// Row materializes row i as a value slice.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.Columns))
	for c, col := range t.Columns {
		out[c] = col.Value(i)
	}
	return out
}

// Take returns a new table holding t's rows in the order listed (a row may
// repeat), with t's name, schema and page size. Each column is gathered
// through the list in one pass, from raw slices or through the encoding of
// a frozen column alike; the result is always raw. A frozen float column
// whose encoding is backed by a raw slice (colstore's FloatSlice
// capability) is gathered from that slice, not boxed value by value.
func (t *Table) Take(rows []int) *Table {
	out := NewTable(t.Name, t.Schema)
	out.PageRows = t.PageRows
	for c, col := range t.Columns {
		dst := out.Columns[c]
		switch col.Type {
		case Int64:
			dst.Ints = gather(col.Ints, col.Enc, func(v Value) int64 { return v.I }, rows)
		case Float64:
			raw, enc := col.Floats, col.Enc
			if fs, ok := enc.(interface{ RawFloats() []float64 }); ok {
				raw, enc = fs.RawFloats(), nil
			}
			dst.Floats = gather(raw, enc, func(v Value) float64 { return v.F }, rows)
		default:
			dst.Strings = gather(col.Strings, col.Enc, func(v Value) string { return v.S }, rows)
		}
	}
	return out
}

// gather copies raw[rows[i]] — or, for a frozen column, field(enc.Value(rows[i])).
func gather[T any](raw []T, enc Encoded, field func(Value) T, rows []int) []T {
	out := make([]T, len(rows))
	if enc == nil {
		for i, r := range rows {
			out[i] = raw[r]
		}
		return out
	}
	for i, r := range rows {
		out[i] = field(enc.Value(r))
	}
	return out
}

// MinMax returns the minimum and maximum values of a numeric column as
// floats. It returns ok=false for an empty table or string column.
func (t *Table) MinMax(column string) (lo, hi float64, ok bool) {
	col := t.Column(column)
	if col == nil || col.Type == String || col.Len() == 0 {
		return 0, 0, false
	}
	lo, hi = col.Float(0), col.Float(0)
	for i := 1; i < col.Len(); i++ {
		v := col.Float(i)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, true
}
