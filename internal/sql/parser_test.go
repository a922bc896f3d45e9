package sql

import (
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, b FROM t WHERE x >= 1.5 AND name = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	if toks[0].Text != "SELECT" || toks[0].Kind != TokKeyword {
		t.Errorf("first token %+v", toks[0])
	}
	// escaped quote
	found := false
	for _, tok := range toks {
		if tok.Kind == TokString && tok.Text == "it's" {
			found = true
		}
	}
	if !found {
		t.Error("escaped string literal not lexed")
	}
	if kinds[len(kinds)-1] != TokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexNumbers(t *testing.T) {
	for _, src := range []string{"1", "1.5", ".5", "1e5", "2.5E-3", "100"} {
		toks, err := Lex(src)
		if err != nil {
			t.Fatalf("Lex(%q): %v", src, err)
		}
		if toks[0].Kind != TokNumber || toks[0].Text != src {
			t.Errorf("Lex(%q) = %+v", src, toks[0])
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "a | b", "a ! b", "a ; b"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

func TestParseSimpleSelect(t *testing.T) {
	stmt, err := Parse("SELECT a, b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 2 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	ref, ok := stmt.From.(TableRef)
	if !ok || ref.Name != "t" {
		t.Errorf("From = %#v", stmt.From)
	}
	if stmt.Limit != -1 || stmt.Offset != -1 {
		t.Error("absent LIMIT/OFFSET not -1")
	}
}

// TestParsePaperQ1 parses the scrolling case study's simple select query
// verbatim from the paper.
func TestParsePaperQ1(t *testing.T) {
	q := `SELECT poster, title || '(' || year || ')',
	       director, genre, plot, rating
	       FROM imdb LIMIT 100 OFFSET 100`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 6 {
		t.Fatalf("items = %d, want 6", len(stmt.Items))
	}
	if stmt.Limit != 100 || stmt.Offset != 100 {
		t.Errorf("limit/offset = %d/%d", stmt.Limit, stmt.Offset)
	}
	concat, ok := stmt.Items[1].Expr.(BinaryExpr)
	if !ok || concat.Op != "||" {
		t.Errorf("second item not a concat: %v", stmt.Items[1].Expr)
	}
}

// TestParsePaperQ2 parses the streaming-join query verbatim from the paper.
func TestParsePaperQ2(t *testing.T) {
	q := `SELECT poster, title || '(' || year || ')',
	       director, genre, plot, rating
	       FROM (
	         (SELECT id, rating FROM imdbrating LIMIT 100 OFFSET 100) tmp
	         INNER JOIN movie ON tmp.id = movie.id
	       )`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	join, ok := stmt.From.(JoinExpr)
	if !ok {
		t.Fatalf("From = %#v, want JoinExpr", stmt.From)
	}
	sub, ok := join.Left.(SubqueryRef)
	if !ok || sub.Alias != "tmp" {
		t.Fatalf("join left = %#v", join.Left)
	}
	if sub.Query.Limit != 100 || sub.Query.Offset != 100 {
		t.Error("subquery limit/offset lost")
	}
	on, ok := join.On.(BinaryExpr)
	if !ok || on.Op != "=" {
		t.Fatalf("ON = %#v", join.On)
	}
	l := on.Left.(ColumnRef)
	r := on.Right.(ColumnRef)
	if l.Table != "tmp" || l.Name != "id" || r.Table != "movie" || r.Name != "id" {
		t.Errorf("ON refs = %v, %v", l, r)
	}
}

// TestParsePaperCrossfilterQuery parses the crossfilter histogram query
// verbatim from the paper.
func TestParsePaperCrossfilterQuery(t *testing.T) {
	q := `SELECT ROUND((y - 56.582) / ((57.774 - 56.582) / 20)),
	       COUNT(*)
	       FROM dataroad
	       WHERE x >= 8.146 AND x <= 11.2616367163
	         AND y >= 56.582 AND y <= 57.774
	         AND z >= -8.608 AND z <= 137.361
	       GROUP BY ROUND((y - 56.582) / ((57.774 - 56.582) / 20))
	       ORDER BY ROUND((y - 56.582) / ((57.774 - 56.582) / 20))`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 2 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	round, ok := stmt.Items[0].Expr.(FuncCall)
	if !ok || round.Name != "ROUND" {
		t.Fatalf("first item = %#v", stmt.Items[0].Expr)
	}
	count, ok := stmt.Items[1].Expr.(FuncCall)
	if !ok || count.Name != "COUNT" {
		t.Fatalf("second item = %#v", stmt.Items[1].Expr)
	}
	if _, ok := count.Args[0].(Star); !ok {
		t.Error("COUNT arg is not *")
	}
	if len(stmt.GroupBy) != 1 || len(stmt.OrderBy) != 1 {
		t.Errorf("groupby=%d orderby=%d", len(stmt.GroupBy), len(stmt.OrderBy))
	}
	if stmt.Where == nil {
		t.Fatal("WHERE missing")
	}
	// WHERE is a 6-way conjunction.
	n := 0
	Walk(stmt.Where, func(e Expr) {
		if b, ok := e.(BinaryExpr); ok && b.Op == "AND" {
			n++
		}
	})
	if n != 5 {
		t.Errorf("conjunction count = %d, want 5", n)
	}
}

func TestParseAliasesAndOrder(t *testing.T) {
	stmt, err := Parse("SELECT a AS x, b y FROM t ORDER BY a DESC, b ASC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Items[0].Alias != "x" || stmt.Items[1].Alias != "y" {
		t.Errorf("aliases = %q, %q", stmt.Items[0].Alias, stmt.Items[1].Alias)
	}
	if !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Error("order directions wrong")
	}
}

func TestParseBetweenAndNot(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND NOT b = 2")
	if err != nil {
		t.Fatal(err)
	}
	and, ok := stmt.Where.(BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("Where = %#v", stmt.Where)
	}
	if _, ok := and.Left.(BetweenExpr); !ok {
		t.Errorf("left = %#v, want BetweenExpr", and.Left)
	}
	if _, ok := and.Right.(UnaryExpr); !ok {
		t.Errorf("right = %#v, want UnaryExpr", and.Right)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse("SELECT 1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	add := stmt.Items[0].Expr.(BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top op %q, want +", add.Op)
	}
	mul := add.Right.(BinaryExpr)
	if mul.Op != "*" {
		t.Errorf("right op %q, want *", mul.Op)
	}
}

func TestParseUnaryMinus(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE z >= -8.608")
	if err != nil {
		t.Fatal(err)
	}
	cmp := stmt.Where.(BinaryExpr)
	if _, ok := cmp.Right.(UnaryExpr); !ok {
		t.Errorf("rhs = %#v, want UnaryExpr", cmp.Right)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t LIMIT 1.5",
		"SELECT a FROM (SELECT b FROM u)", // derived table needs alias
		"SELECT a FROM t GROUP",
		"SELECT a FROM t extra junk (",
		"SELECT a b c FROM t",
		"SELECT count(",
		"SELECT a FROM t JOIN u", // missing ON
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestRoundTrip checks that String() output reparses to the same string —
// the property the workload logger relies on.
func TestRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT a, b FROM t WHERE x >= 1 AND x <= 2",
		"SELECT ROUND(y / 2), COUNT(*) FROM t GROUP BY ROUND(y / 2) ORDER BY ROUND(y / 2)",
		"SELECT a || 'x' FROM t LIMIT 10 OFFSET 20",
		"SELECT * FROM t WHERE a BETWEEN 1 AND 2 OR NOT b = 3",
		"SELECT m.a, n.b FROM m INNER JOIN n ON m.id = n.id",
	}
	for _, q := range queries {
		s1, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		s2, err := Parse(s1.String())
		if err != nil {
			t.Fatalf("reparse of %q (%q): %v", q, s1.String(), err)
		}
		if s1.String() != s2.String() {
			t.Errorf("round trip changed:\n  %s\n  %s", s1, s2)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("NOT SQL")
}

func TestSelectStar(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.Items[0].Expr.(Star); !ok {
		t.Error("SELECT * did not parse to Star")
	}
	if !strings.Contains(stmt.String(), "*") {
		t.Error("Star lost in String()")
	}
}

// TestEqualAgreesWithRendering: Equal replaces comparing String() output
// in the engine's histogram matcher, so over parsed expressions the two
// must agree pair by pair — including `5` against `5.0`, which render
// alike and denote the same number.
func TestEqualAgreesWithRendering(t *testing.T) {
	srcs := []string{
		"x", "y", "t.x", "5", "5.0", "5.5", "9007199254740992", "9007199254740993", "'x'", "'y'",
		"-x", "NOT x", "x + 1", "1 + x", "x - 1", "(x - 8.146) / 0.2", "(x - 8.146) / 0.25", "(y - 8.146) / 0.2",
		"ROUND((x - 8.146) / 0.2)", "ROUND((x - 8.146) / 0.20)", "ROUND(x)", "ROUND(x, 1)", "SUM(x)",
		"COUNT(*)", "COUNT(x)", "x BETWEEN 1 AND 2", "x BETWEEN 1 AND 3", "x >= 1 AND x <= 2", "x >= 1 OR x <= 2",
	}
	exprs := make([]Expr, len(srcs))
	for i, src := range srcs {
		exprs[i] = MustParse("SELECT " + src + " FROM t").Items[0].Expr
	}
	for i, a := range exprs {
		for j, b := range exprs {
			if got, want := Equal(a, b), a.String() == b.String(); got != want {
				t.Errorf("Equal(%s, %s) = %v, renderings equal = %v", srcs[i], srcs[j], got, want)
			}
		}
	}
	if Equal(nil, nil) || Equal(exprs[0], nil) || Equal(&BinaryExpr{Op: "+"}, &BinaryExpr{Op: "+"}) {
		t.Error("nil or pointer nodes compared equal")
	}
}
