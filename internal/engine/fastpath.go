package engine

import (
	"context"
	"math"
	"slices"
	"sort"

	"repro/internal/colstore"
	"repro/internal/sql"
	"repro/internal/storage"
)

// The histogram fast path recognizes the crossfiltering case study's query
// shape —
//
//	SELECT ROUND((col - lo) / step), COUNT(*)
//	FROM t
//	WHERE c1 >= a AND c1 <= b AND ...
//	GROUP BY ROUND(...) ORDER BY ROUND(...)
//
// — and executes it as vectorized passes over the columns' colstore forms.
// This matters because the crossfilter workload issues thousands of these
// per trace; the generic row-at-a-time path would dominate benchmark wall
// time without changing any measured model cost (the cost model charges the
// same pages and tuples either way).

// histQuery is a matched histogram query, compiled to the one plan every
// table runs: the predicate ranges as zone-mapped colstore kernels into a
// per-worker selection bitmap, then the bin column counted a selection
// word at a time where its zone falls in one bin and decoded per surviving
// row elsewhere. Frozen columns bring their encoding; unfrozen ones are
// read through their zero-copy view (colstore.ViewOf), so raw, frozen and
// mixed tables differ only in which kernel each column owns. A table with
// a cell-run directory runs the same plan over only the runs whose bounds
// do not decide them (countHistogramRange).
type histQuery struct {
	table *storage.Table
	bin   affine      // bin = round(a·col + b)
	preds []rangePred // the WHERE conjunction, one closed range per column

	binEnc   colstore.Column
	binZones *colstore.ZoneMap
	binRaw   []float64 // the bin column's raw slice when it has one

	// When the bin column has a sketch: its per-row bucket codes, and per
	// bucket the dense-window slot every row of the bucket bins to, or -1
	// where the bucket straddles a bin edge and rows must be decoded.
	binCodes []uint8
	binSlot  []int16

	// The table's cell-run directory, nil when it keeps none, and the run
	// bounds of every distinct column the statement reads: the bin
	// column's first. Each predicate carries its own column's.
	runs    *colstore.Runs
	runCols []*colstore.RunBounds

	// When the directory's grid counted the statement's interior
	// (planCells): the runs left to decide one by one, ascending.
	// Otherwise the decision loop walks every run.
	shell   []int32
	onShell bool
}

// run returns the i-th run the decision loop walks.
func (q *histQuery) run(i int) int {
	if q.onShell {
		return int(q.shell[i])
	}
	return i
}

// planCells counts the statement's interior from the directory's cell
// grid (colstore.Grid) into acc, and leaves the decision loop only the
// shell. Every slab of every grid dimension is decided once, from its
// bounds: excluded when the dimension's predicate is disjoint from them;
// inside when the predicate contains them or the dimension has none and,
// on the bin column's dimension, both ends round to one dense slot
// (denseSlot); shell otherwise — NaN bounds fail every comparison. The
// interior, the runs inside on every dimension, is one box count per
// inside bin slab over the other dimensions' inside slabs. The runs in an
// excluded slab are counted skipped without a visit, the interior's
// summed. A table without a grid, a predicate or a bin column off it, or
// a dimension whose inside slabs are not one interval leaves the walk
// over every run as it was.
func (q *histQuery) planCells(acc *histAcc) {
	if q.runs == nil || q.runs.Grid() == nil {
		return
	}
	g := q.runs.Grid()
	d := g.Dims()
	target := g.DimOf(slices.Index(q.table.Columns, q.bin.col))
	if target < 0 {
		return
	}
	preds := make([]*rangePred, d)
	for i := range q.preds {
		p := &q.preds[i]
		j := g.DimOf(slices.Index(q.table.Columns, p.col))
		if j < 0 {
			return
		}
		preds[j] = p
	}
	slabs := 0
	for j := range d {
		slabs += g.Slabs(j)
	}
	state, flat := make([][]colstore.SlabState, d), make([]colstore.SlabState, slabs)
	slots := make([]int, g.Slabs(target))
	box := make([]int, 2*d)
	lo, hi := box[:d], box[d:]
	for j := range state {
		state[j], flat = flat[:g.Slabs(j)], flat[g.Slabs(j):]
		lo[j], hi[j] = len(state[j]), -1
		for c := range state[j] {
			vmin, vmax, ok := g.Slab(j, c)
			s := colstore.SlabInside
			if p := preds[j]; !ok || p != nil && (vmax < p.lo || vmin > p.hi) {
				s = colstore.SlabExcluded // an empty slab holds no run
			} else if p != nil && !(vmin >= p.lo && vmax <= p.hi) {
				s = colstore.SlabShell
			}
			if j == target && s == colstore.SlabInside {
				if slots[c], ok = q.denseSlot(vmin, vmax); !ok {
					s = colstore.SlabShell
				}
			}
			if state[j][c] = s; s == colstore.SlabInside {
				lo[j], hi[j] = min(lo[j], c), c
			}
		}
	}
	for j := range state {
		if j == target {
			continue
		}
		for c := lo[j]; c <= hi[j]; c++ {
			if _, _, ok := g.Slab(j, c); ok && state[j][c] != colstore.SlabInside {
				return
			}
		}
	}
	var interior int64
	for c, s := range state[target] {
		if s != colstore.SlabInside {
			continue
		}
		lo[target], hi[target] = c, c
		rows, runs := g.Count(lo, hi)
		if rows > 0 {
			acc.add(slots[c], rows)
		}
		interior += runs
	}
	q.shell, q.onShell = g.Shell(state, nil), true
	excluded := int64(q.runs.Len()) - interior - int64(len(q.shell))
	for _, c := range q.runCols {
		c.Record(excluded, interior, 0)
	}
	q.runs.RecordGrid()
}

// denseSlot returns the dense-window slot shared by every value in
// [vmin, vmax]: round(a·v + b) is monotone in v, so when both ends round to
// one bin inside the window everything between does. NaN bounds, a range
// spanning a bin edge and bins outside the window report false.
func (q *histQuery) denseSlot(vmin, vmax float64) (int, bool) {
	bin := math.Round(q.bin.a*vmin + q.bin.b)
	if bin == math.Round(q.bin.a*vmax+q.bin.b) && bin >= -fastBinOffset && bin < fastBinOffset {
		return int(bin) + fastBinOffset, true
	}
	return 0, false
}

// binValue is the bin column's float64 image of row i.
func (q *histQuery) binValue(i int) float64 {
	if q.binRaw != nil {
		return q.binRaw[i]
	}
	return q.binEnc.Float(i)
}

// compile resolves every referenced column to its colstore form. The
// matcher has already refused TEXT columns, so ViewOf answers for each; a
// false return would mean an Encoded implemented outside colstore, which
// the generic path still reads through Value.
func (q *histQuery) compile() bool {
	var ok bool
	if q.binEnc, ok = colstore.ViewOf(q.bin.col); !ok {
		return false
	}
	for i := range q.preds {
		p := &q.preds[i]
		if p.enc, ok = colstore.ViewOf(p.col); !ok {
			return false
		}
	}
	q.binZones = colstore.ZonesOf(q.binEnc)
	if fs, ok := q.binEnc.(colstore.FloatSlice); ok {
		q.binRaw = fs.RawFloats()
	}
	if sk := colstore.SketchOf(q.binEnc); sk != nil {
		q.binCodes = sk.Codes()
		q.binSlot = make([]int16, sk.Buckets())
		for k := range q.binSlot {
			q.binSlot[k] = -1
			if slot, ok := q.denseSlot(sk.Bounds(k)); ok {
				q.binSlot[k] = int16(slot)
			}
		}
	}
	if runs := colstore.RunsOf(q.table); runs != nil {
		q.runs = runs
		q.runCols = []*colstore.RunBounds{runs.Column(slices.Index(q.table.Columns, q.bin.col))}
		for i := range q.preds {
			p := &q.preds[i]
			p.runs = runs.Column(slices.Index(q.table.Columns, p.col))
			if !slices.Contains(q.runCols, p.runs) {
				q.runCols = append(q.runCols, p.runs)
			}
		}
	}
	// Most-selective predicate first: the later AND passes only touch rows
	// still selected, so running the narrowest range first collapses the
	// bitmap early and the rest of the conjunction rides the sparse path.
	// The code-space fraction is a free selectivity estimate for coded
	// columns, the sketch's bucket counts for plain ones; a column with
	// neither (estimate 1.0) keeps its written order.
	sort.SliceStable(q.preds, func(i, j int) bool {
		return q.preds[i].estSelectivity() < q.preds[j].estSelectivity()
	})
	return true
}

// estSelectivity estimates the fraction of rows a predicate keeps: the
// selected share of the column's code space when it is coded, the share of
// rows in the sketch buckets the range touches when it is sketched, 1.0
// (unknown) otherwise.
func (p *rangePred) estSelectivity() float64 {
	coded, ok := p.enc.(colstore.Coded)
	if !ok {
		if sk := colstore.SketchOf(p.enc); sk != nil {
			return sk.EstimateRange(p.lo, p.hi)
		}
		return 1
	}
	cLo, cHi, ok := coded.CodeRange(p.lo, p.hi)
	if !ok {
		return 0
	}
	return float64(cHi-cLo+1) / float64(coded.CodeSpan()+1)
}

// affine is a·col + b over one numeric column.
type affine struct {
	col  *storage.Column
	a, b float64
}

// rangePred is every `col op constant` comparison (op ∈ {>=, <=, >, <})
// the WHERE clause makes on one column, fused into the closed range
// [lo, hi] by colstore.RangeFromOp / IntersectRange — the one canonical
// form the kernels compare against. The usual brush shape (>= lo AND
// <= hi) is one range, so one compare pass.
type rangePred struct {
	col    *storage.Column
	enc    colstore.Column     // col's frozen encoding or view, set by compile
	runs   *colstore.RunBounds // col's bounds in the table's directory, if any
	lo, hi float64
}

// matchHistogram reports whether stmt fits the fast path and returns the
// compiled form.
func (e *Engine) matchHistogram(stmt *sql.SelectStmt) (*histQuery, bool) {
	if len(stmt.Items) != 2 || len(stmt.GroupBy) != 1 || stmt.Limit >= 0 || stmt.Offset >= 0 {
		return nil, false
	}
	ref, ok := stmt.From.(sql.TableRef)
	if !ok {
		return nil, false
	}
	tbl := e.tables[ref.Name]
	if tbl == nil {
		return nil, false
	}

	// Item 0: ROUND(affine), identical to the GROUP BY (and ORDER BY, if
	// present) expression.
	round, ok := stmt.Items[0].Expr.(sql.FuncCall)
	if !ok || round.Name != "ROUND" || len(round.Args) != 1 {
		return nil, false
	}
	if !sql.Equal(stmt.GroupBy[0], round) {
		return nil, false
	}
	if len(stmt.OrderBy) > 1 {
		return nil, false
	}
	if len(stmt.OrderBy) == 1 &&
		(stmt.OrderBy[0].Desc || !sql.Equal(stmt.OrderBy[0].Expr, round)) {
		return nil, false
	}

	// Item 1: COUNT(*).
	count, ok := stmt.Items[1].Expr.(sql.FuncCall)
	if !ok || count.Name != "COUNT" || len(count.Args) != 1 {
		return nil, false
	}
	if _, star := count.Args[0].(sql.Star); !star {
		return nil, false
	}

	bin, ok := analyzeAffine(round.Args[0], tbl)
	if !ok {
		return nil, false
	}

	q := &histQuery{table: tbl, bin: bin}
	if stmt.Where != nil {
		if q.preds, ok = collectRangePreds(stmt.Where, tbl, nil); !ok {
			return nil, false
		}
	}
	if !q.compile() {
		return nil, false
	}
	return q, true
}

// analyzeAffine decomposes an expression into a·col + b if it is affine in
// exactly one column of tbl with otherwise constant subexpressions.
func analyzeAffine(e sql.Expr, tbl *storage.Table) (affine, bool) {
	col, a, b, ok := affineRec(e, tbl)
	if !ok || col == nil {
		return affine{}, false
	}
	return affine{col: col, a: a, b: b}, true
}

// affineRec returns (col, a, b) meaning a·col + b; col nil means constant b.
func affineRec(e sql.Expr, tbl *storage.Table) (*storage.Column, float64, float64, bool) {
	switch v := e.(type) {
	case sql.NumberLit:
		return nil, 0, v.Value, true
	case sql.ColumnRef:
		c := tbl.Column(v.Name)
		if c == nil || c.Type == storage.String {
			return nil, 0, 0, false
		}
		return c, 1, 0, true
	case sql.UnaryExpr:
		if v.Op != "-" {
			return nil, 0, 0, false
		}
		c, a, b, ok := affineRec(v.Expr, tbl)
		return c, -a, -b, ok
	case sql.BinaryExpr:
		lc, la, lb, lok := affineRec(v.Left, tbl)
		rc, ra, rb, rok := affineRec(v.Right, tbl)
		if !lok || !rok {
			return nil, 0, 0, false
		}
		switch v.Op {
		case "+":
			if lc != nil && rc != nil {
				return nil, 0, 0, false
			}
			c := lc
			if c == nil {
				c = rc
			}
			return c, la + ra, lb + rb, true
		case "-":
			if lc != nil && rc != nil {
				return nil, 0, 0, false
			}
			c := lc
			if c == nil {
				c = rc
			}
			return c, la - ra, lb - rb, true
		case "*":
			if lc != nil && rc != nil {
				return nil, 0, 0, false
			}
			if lc != nil {
				return lc, la * rb, lb * rb, true
			}
			return rc, ra * lb, rb * lb, true
		case "/":
			if rc != nil || rb == 0 {
				return nil, 0, 0, false
			}
			return lc, la / rb, lb / rb, true
		default:
			return nil, 0, 0, false
		}
	default:
		return nil, 0, 0, false
	}
}

// collectRangePreds flattens a conjunction of simple numeric comparisons
// onto preds, intersecting comparisons on a column it already holds.
func collectRangePreds(e sql.Expr, tbl *storage.Table, preds []rangePred) ([]rangePred, bool) {
	b, ok := e.(sql.BinaryExpr)
	if !ok {
		return nil, false
	}
	if b.Op == "AND" {
		preds, ok = collectRangePreds(b.Left, tbl, preds)
		if !ok {
			return nil, false
		}
		return collectRangePreds(b.Right, tbl, preds)
	}
	switch b.Op {
	case ">=", "<=", ">", "<":
	default:
		return nil, false
	}
	// col op const, or const op col  →  col flipped-op const
	ref, isRef := b.Left.(sql.ColumnRef)
	v, isConst := constValue(b.Right)
	op := b.Op
	if !isRef || !isConst {
		ref, isRef = b.Right.(sql.ColumnRef)
		v, isConst = constValue(b.Left)
		op = flipOp(op)
	}
	if !isRef || !isConst {
		return nil, false
	}
	col := tbl.Column(ref.Name)
	if col == nil || col.Type == storage.String {
		return nil, false
	}
	lo, hi := colstore.RangeFromOp(op, v)
	for i := range preds {
		if p := &preds[i]; p.col == col {
			p.lo, p.hi = colstore.IntersectRange(p.lo, p.hi, lo, hi)
			return preds, true
		}
	}
	return append(preds, rangePred{col: col, lo: lo, hi: hi}), true
}

func flipOp(op string) string {
	switch op {
	case ">=":
		return "<="
	case "<=":
		return ">="
	case ">":
		return "<"
	case "<":
		return ">"
	}
	return op
}

// constValue evaluates a constant numeric expression (literals, unary
// minus, arithmetic over literals).
func constValue(e sql.Expr) (float64, bool) {
	switch v := e.(type) {
	case sql.NumberLit:
		return v.Value, true
	case sql.UnaryExpr:
		if v.Op != "-" {
			return 0, false
		}
		x, ok := constValue(v.Expr)
		return -x, ok
	case sql.BinaryExpr:
		l, lok := constValue(v.Left)
		r, rok := constValue(v.Right)
		if !lok || !rok {
			return 0, false
		}
		switch v.Op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			return l / r, true
		}
		return 0, false
	default:
		return 0, false
	}
}

// fastBins is the dense bin window of the fast path; bins outside
// [-fastBinOffset, fastBinOffset) spill to a map.
const fastBinOffset = 4096

// runHistogram executes a matched histogram query over the whole table.
// The pass is morsel-parallel (see parallel.go): pages are charged up front
// by the coordinator exactly as the serial path does, and the int64 bin
// counts merge exactly, so results and cost accounting are identical at
// every parallelism level.
func (e *Engine) runHistogram(ctx context.Context, q *histQuery, stats *ExecStats) (*Result, error) {
	n := q.table.NumRows()
	stats.TuplesScanned += n
	e.chargePages(q.table, 0, n, stats)

	accs := e.getHistAccs(n, e.parallelWorkers(n))
	defer e.putHistAccs(accs)
	q.planCells(accs[0])
	acc, err := countHistogram(ctx, q, n, accs)
	if err != nil {
		return nil, ctxErr(err)
	}
	return histResult(acc), nil
}

// histResult materializes a (bin, count) result from an accumulator.
func histResult(acc *histAcc) *Result {
	var bins []int
	for idx := acc.lo; idx <= acc.hi; idx++ {
		if acc.dense[idx] > 0 {
			bins = append(bins, idx-fastBinOffset)
		}
	}
	for bin := range acc.sparse {
		bins = append(bins, bin)
	}
	sort.Ints(bins)

	rows := make([][]storage.Value, len(bins))
	for i, bin := range bins {
		c := acc.sparse[bin]
		if idx := bin + fastBinOffset; idx >= 0 && idx < len(acc.dense) {
			c = acc.dense[idx]
		}
		rows[i] = []storage.Value{storage.NewFloat(float64(bin)), storage.NewInt(c)}
	}
	return &Result{
		Columns: []string{"bin", "count"},
		Rows:    rows,
	}
}

// IsHistogramShaped reports whether stmt matches the histogram fast-path
// shape against this engine's tables. Shard coordinators use it as the
// merge-eligibility gate: a histogram's per-partition bin counts merge by
// addition, so only this shape scatter-gathers; anything else must run on
// a full replica.
func (e *Engine) IsHistogramShaped(stmt *sql.SelectStmt) bool {
	_, ok := e.matchHistogram(stmt)
	return ok
}
