// Package storage implements the columnar table storage substrate: typed
// columns, schemas, row builders, page-grained layout with a buffer pool
// (used by the disk-resident engine profile).
//
// The storage layer is deliberately simple — append-only, fully typed, no
// nulls — because the paper's workloads are read-only analytical scans over
// static datasets. What matters for reproducing the evaluation is faithful
// cost accounting (pages touched, tuples evaluated), which this package
// exposes precisely.
package storage

import "fmt"

// Type identifies the runtime type of a column or value.
type Type int

// Column types supported by the storage layer.
const (
	Int64 Type = iota
	Float64
	String
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "TEXT"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a dynamically typed scalar. Exactly one of I, F, S is meaningful,
// selected by Type. A struct of unboxed fields avoids interface allocation
// on the executor's hot path.
type Value struct {
	Type Type
	I    int64
	F    float64
	S    string
}

// NewInt returns an Int64 value.
func NewInt(v int64) Value { return Value{Type: Int64, I: v} }

// NewFloat returns a Float64 value.
func NewFloat(v float64) Value { return Value{Type: Float64, F: v} }

// NewString returns a String value.
func NewString(v string) Value { return Value{Type: String, S: v} }

// AsFloat converts numeric values to float64. String values return 0; use
// Type to discriminate first when the column may be textual.
func (v Value) AsFloat() float64 {
	switch v.Type {
	case Int64:
		return float64(v.I)
	case Float64:
		return v.F
	default:
		return 0
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Type {
	case Int64:
		return fmt.Sprintf("%d", v.I)
	case Float64:
		return fmt.Sprintf("%g", v.F)
	case String:
		return v.S
	default:
		return "<invalid>"
	}
}

// Compare orders two values of the same type: -1, 0, or +1. Comparing values
// of different types panics; the planner type-checks expressions before
// execution, so a mismatch here is a bug.
func (v Value) Compare(o Value) int {
	if v.Type != o.Type {
		// Allow int/float cross-comparison: SQL numeric literals parse as
		// either, and predicates like "year > 1990.5" are legal.
		if (v.Type == Int64 || v.Type == Float64) && (o.Type == Int64 || o.Type == Float64) {
			a, b := v.AsFloat(), o.AsFloat()
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
		panic(fmt.Sprintf("storage: comparing %v to %v", v.Type, o.Type))
	}
	switch v.Type {
	case Int64:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
	case Float64:
		switch {
		case v.F < o.F:
			return -1
		case v.F > o.F:
			return 1
		}
	case String:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
	}
	return 0
}

// Equal reports whether two values are equal under Compare semantics.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }
