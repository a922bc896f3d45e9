package sql

import (
	"fmt"
	"slices"
	"strings"
)

// Expr is a SQL expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// ColumnRef names a column, optionally qualified by a table or alias.
type ColumnRef struct {
	Table string // "" when unqualified
	Name  string
}

func (ColumnRef) exprNode() {}

func (c ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// NumberLit is a numeric literal. Integral literals keep IsInt=true so that
// integer semantics (e.g. LIMIT counts) survive.
type NumberLit struct {
	Value float64
	IsInt bool
	Int   int64
}

func (NumberLit) exprNode() {}

func (n NumberLit) String() string {
	if n.IsInt {
		return fmt.Sprintf("%d", n.Int)
	}
	return fmt.Sprintf("%g", n.Value)
}

// StringLit is a string literal.
type StringLit struct{ Value string }

func (StringLit) exprNode() {}

func (s StringLit) String() string { return "'" + strings.ReplaceAll(s.Value, "'", "''") + "'" }

// Star is the bare * projection (or COUNT(*) argument).
type Star struct{}

func (Star) exprNode() {}

func (Star) String() string { return "*" }

// BinaryExpr applies an infix operator: + - * / % || AND OR and the
// comparison operators = <> < <= > >=.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

func (BinaryExpr) exprNode() {}

func (b BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left, b.Op, b.Right)
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op   string // "NOT" or "-"
	Expr Expr
}

func (UnaryExpr) exprNode() {}

func (u UnaryExpr) String() string {
	if u.Op == "NOT" {
		return fmt.Sprintf("(NOT %s)", u.Expr)
	}
	return fmt.Sprintf("(-%s)", u.Expr)
}

// FuncCall is a function or aggregate call: ROUND(e), COUNT(*), SUM(e),
// AVG(e), MIN(e), MAX(e).
type FuncCall struct {
	Name string // upper-cased
	Args []Expr
}

func (FuncCall) exprNode() {}

func (f FuncCall) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(args, ", "))
}

// BetweenExpr is `e BETWEEN lo AND hi`.
type BetweenExpr struct {
	Expr, Lo, Hi Expr
}

func (BetweenExpr) exprNode() {}

func (b BetweenExpr) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.Expr, b.Lo, b.Hi)
}

// SelectItem is one projection: an expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

func (s SelectItem) String() string {
	if s.Alias != "" {
		return fmt.Sprintf("%s AS %s", s.Expr, s.Alias)
	}
	return s.Expr.String()
}

// TableExpr is a FROM-clause source.
type TableExpr interface {
	fmt.Stringer
	tableNode()
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

func (TableRef) tableNode() {}

func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// SubqueryRef is an aliased derived table: (SELECT ...) alias.
type SubqueryRef struct {
	Query *SelectStmt
	Alias string
}

func (SubqueryRef) tableNode() {}

func (s SubqueryRef) String() string {
	return fmt.Sprintf("(%s) %s", s.Query, s.Alias)
}

// JoinExpr is `left INNER JOIN right ON cond`.
type JoinExpr struct {
	Left, Right TableExpr
	On          Expr
}

func (JoinExpr) tableNode() {}

func (j JoinExpr) String() string {
	return fmt.Sprintf("(%s INNER JOIN %s ON %s)", j.Left, j.Right, j.On)
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// SelectStmt is a parsed SELECT statement. Limit and Offset are -1 when
// absent.
type SelectStmt struct {
	Items   []SelectItem
	From    TableExpr
	Where   Expr // nil when absent
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   int64
	Offset  int64
}

func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, item := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(item.String())
	}
	if s.From != nil {
		sb.WriteString(" FROM ")
		sb.WriteString(s.From.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.String())
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	if s.Offset >= 0 {
		fmt.Fprintf(&sb, " OFFSET %d", s.Offset)
	}
	return sb.String()
}

// Equal reports whether two expressions are the same tree: the same node
// kinds, operators, names and literal values in the same places. Number
// literals compare by the number they denote, so `5` equals `5.0`; two
// integer literals must also agree as integers (past 2^53 their float
// images collide). It compares the value nodes the parser builds; a nil or
// pointer node equals nothing.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case ColumnRef:
		y, ok := b.(ColumnRef)
		return ok && x == y
	case NumberLit:
		y, ok := b.(NumberLit)
		return ok && x.Value == y.Value && (!x.IsInt || !y.IsInt || x.Int == y.Int)
	case StringLit:
		y, ok := b.(StringLit)
		return ok && x == y
	case Star:
		_, ok := b.(Star)
		return ok
	case BinaryExpr:
		y, ok := b.(BinaryExpr)
		return ok && x.Op == y.Op && Equal(x.Left, y.Left) && Equal(x.Right, y.Right)
	case UnaryExpr:
		y, ok := b.(UnaryExpr)
		return ok && x.Op == y.Op && Equal(x.Expr, y.Expr)
	case FuncCall:
		y, ok := b.(FuncCall)
		return ok && x.Name == y.Name && slices.EqualFunc(x.Args, y.Args, Equal)
	case BetweenExpr:
		y, ok := b.(BetweenExpr)
		return ok && Equal(x.Expr, y.Expr) && Equal(x.Lo, y.Lo) && Equal(x.Hi, y.Hi)
	}
	return false
}

// Walk visits every expression node in the tree rooted at e, depth-first,
// calling fn for each. Used by the planner to locate aggregates and column
// references.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch v := e.(type) {
	case BinaryExpr:
		Walk(v.Left, fn)
		Walk(v.Right, fn)
	case *BinaryExpr:
		Walk(v.Left, fn)
		Walk(v.Right, fn)
	case UnaryExpr:
		Walk(v.Expr, fn)
	case *UnaryExpr:
		Walk(v.Expr, fn)
	case FuncCall:
		for _, a := range v.Args {
			Walk(a, fn)
		}
	case *FuncCall:
		for _, a := range v.Args {
			Walk(a, fn)
		}
	case BetweenExpr:
		Walk(v.Expr, fn)
		Walk(v.Lo, fn)
		Walk(v.Hi, fn)
	case *BetweenExpr:
		Walk(v.Expr, fn)
		Walk(v.Lo, fn)
		Walk(v.Hi, fn)
	}
}
