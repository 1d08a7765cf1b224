package core

import (
	"fmt"
	"sort"
	"strings"

	"mocha/internal/catalog"
	"mocha/internal/types"
)

// Strategy selects the operator-placement policy. The evaluation of the
// paper compares forced code shipping against forced data shipping and
// shows the VRF-based automatic policy always matches the winner.
type Strategy int

// Placement strategies.
const (
	// StrategyAuto places each operator by its VRF: data-reducing
	// operators go to the DAPs, data-inflating ones stay at the QPC.
	StrategyAuto Strategy = iota
	// StrategyCodeShip forces every single-table operator to the DAPs.
	StrategyCodeShip
	// StrategyDataShip forces every operator to the QPC; DAPs only
	// extract attributes (the behaviour of gateway/wrapper middleware).
	StrategyDataShip
)

func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyCodeShip:
		return "code-shipping"
	case StrategyDataShip:
		return "data-shipping"
	}
	return "unknown"
}

// Optimizer builds physical plans from bound queries.
type Optimizer struct {
	Cat      *catalog.Catalog
	Strategy Strategy
	Model    CostModel
}

// NewOptimizer returns an optimizer with the default cost model.
func NewOptimizer(cat *catalog.Catalog) *Optimizer {
	return &Optimizer{Cat: cat, Model: DefaultCostModel()}
}

// colInfo describes one column of the planner's extended column space:
// the global source columns, then one "virtual" column per call result
// the cuts ship.
type colInfo struct {
	table    int
	name     string
	kind     types.Kind
	avgBytes int // source columns only: pricing happens before virtuals exist
}

type planner struct {
	opt  *Optimizer
	q    *BoundQuery
	cols []colInfo

	// cut is the whole-plan placement decision (DESIGN.md §15): every
	// push/keep choice the emission pass makes is a lookup here.
	cut *Cut
	// virt maps a call node running below its table's cut to the
	// virtual column the QPC reads its result by. staged holds the calls
	// the tables' QPC stages run instead, in the order the plan reads
	// them; they are named after every call in virt (nameStaged).
	virt   map[int]int
	staged []stagedCall
	// stages[ti] reports whether table ti's stage runs its narrowing
	// calls: the joins are estimated to keep as many rows as it has.
	stages []bool
}

// Plan builds the physical plan for a bound query.
func (o *Optimizer) Plan(q *BoundQuery) (*Plan, error) {
	return o.newPlanner(q).build()
}

// newPlanner sets up the column space and runs the cut search; build
// then emits the plan the cut describes.
func (o *Optimizer) newPlanner(q *BoundQuery) *planner {
	p := &planner{opt: o, q: q, virt: map[int]int{}}
	for ti, bt := range q.Tables {
		for _, col := range bt.Def.Schema.Columns {
			p.cols = append(p.cols, colInfo{
				table:    ti,
				name:     col.Name,
				kind:     col.Kind,
				avgBytes: colAvgBytes(col, bt.Def.Stats),
			})
		}
	}
	p.cut = p.buildCut()
	return p
}

func (p *planner) tableStats(ti int) catalog.TableStats { return p.q.Tables[ti].Def.Stats }

// exprTable returns the single table an expression touches, or -1 when it
// touches zero or several.
func (p *planner) exprTable(e *PExpr) int {
	t := -2
	for _, c := range e.Columns() {
		ct := p.cols[c].table
		if t == -2 {
			t = ct
		} else if t != ct {
			return -1
		}
	}
	if t == -2 {
		return -1
	}
	return t
}

// pushCalls rewrites a source-space expression the QPC evaluates: each
// maximal single-table call its table's cut runs below becomes a
// reference to a virtual column. This is how AvgEnergy(R1.image) inside
// a cross-site Diff() gets decomposed: the inner call ships to R1's
// DAP, the outer Diff stays at the QPC reading the 8-byte virtual
// column. Arguments are visited first, so _vN numbers the pushed calls
// in post-order, the ones nested inside a shipped call included.
func (p *planner) pushCalls(e *PExpr) *PExpr {
	c := *e
	if len(e.Args) > 0 {
		c.Args = make([]*PExpr, len(e.Args))
		for i, a := range e.Args {
			c.Args[i] = p.pushCalls(a)
		}
	}
	if e.Kind == ExprCall {
		if ti := p.exprTable(e); ti >= 0 {
			if idx, ok := p.cut.dag.pushedCall(ti, e, &p.cut.table(ti).asg); ok {
				return NewCol(p.virtual(idx), e.Ret)
			}
		}
	}
	return &c
}

// virtual returns the virtual column of pushed call node idx, naming
// it on first use.
func (p *planner) virtual(idx int) int {
	col, ok := p.virt[idx]
	if !ok {
		n := p.cut.dag.nodes[idx]
		col = len(p.cols)
		p.cols = append(p.cols, colInfo{table: n.table, name: fmt.Sprintf("_v%d", len(p.virt)), kind: n.expr.Ret})
		p.virt[idx] = col
	}
	return col
}

// stagedCall is a call a multi-table plan computes in its table's QPC
// stage: its virtual column and its expression over that column space.
type stagedCall struct {
	node, col int
	expr      *PExpr
}

// joinFanout estimates how many joined rows each row of table ti
// yields: the other tables' rows after their single-table predicates,
// over the larger side's rows at each equality join (a join key taken
// as distinct, the catalog having no distinct counts). Below 1 the
// joins drop rows of ti, and a call evaluated above them runs on fewer
// rows than in ti's stage.
func (p *planner) joinFanout(ti int) float64 {
	f := 1.0
	for t := range p.q.Tables {
		if t == ti {
			continue
		}
		f *= float64(p.tableRows(t))
		for _, idx := range p.cut.dag.preds[t] {
			f *= p.cut.dag.nodes[idx].sf
		}
	}
	for _, pred := range p.q.Preds {
		if pred.EqJoin {
			f /= float64(max(p.tableRows(pred.LTab), p.tableRows(pred.RTab)))
		}
	}
	return f
}

// stageCalls is pushCalls for an expression above the joins of a
// multi-table plan: a maximal single-table call its table's cut leaves
// above also becomes a virtual column when its result is narrower than
// what it reads (the VRF < 1 test the cut prices by), and the table's
// stage computes it below the joins, unless the joins are estimated
// to drop its table's rows (joinFanout). A widening call stays above,
// and so does a multi-table one, reading its staged arguments. Shipped
// calls are named exactly as pushCalls names them.
func (p *planner) stageCalls(e *PExpr) *PExpr {
	if e.Kind == ExprCall {
		if ti := p.exprTable(e); ti >= 0 {
			if idx, ok := p.cut.dag.callNode(ti, e); ok {
				if p.cut.table(ti).asg.pushNode[idx] {
					return p.pushCalls(e)
				}
				if n := p.cut.dag.nodes[idx]; n.resBytes < n.argBytes && p.stages[ti] {
					return NewCol(p.stage(idx), e.Ret)
				}
			}
		}
	}
	c := *e
	if len(e.Args) > 0 {
		c.Args = make([]*PExpr, len(e.Args))
		for i, a := range e.Args {
			c.Args[i] = p.stageCalls(a)
		}
	}
	return &c
}

// stage returns the virtual column of staged call node idx, adding it
// on first use. It is named once every shipped call is (nameStaged).
func (p *planner) stage(idx int) int {
	for _, sc := range p.staged {
		if sc.node == idx {
			return sc.col
		}
	}
	n := p.cut.dag.nodes[idx]
	sc := stagedCall{node: idx, col: len(p.cols), expr: n.expr}
	if p.pushesWithin(n) {
		sc.expr = p.pushCalls(n.expr)
	}
	p.cols = append(p.cols, colInfo{table: n.table, kind: n.expr.Ret})
	p.staged = append(p.staged, sc)
	return sc.col
}

// pushesWithin reports whether n's cut runs any call nested in n.
func (p *planner) pushesWithin(n *cutNode) bool {
	for _, k := range n.kids {
		if p.cut.table(n.table).asg.pushNode[k] || p.pushesWithin(p.cut.dag.nodes[k]) {
			return true
		}
	}
	return false
}

// nameStaged names the staged calls' virtual columns after the shipped
// ones, in the order the plan first reads them, so that a call's _vN
// is the same whichever side of the link computes it and the shipped
// calls keep the names their fragments carry.
func (p *planner) nameStaged() {
	for k, sc := range p.staged {
		p.cols[sc.col].name = fmt.Sprintf("_v%d", len(p.virt)+k)
	}
}

// qpcItems rewrites the select list and the QPC-side aggregates'
// arguments through rw, the QPC's view of a source-space expression.
func (p *planner) qpcItems(pushAgg bool, rw func(*PExpr) *PExpr) ([]BoundItem, []AggSpec) {
	items := make([]BoundItem, len(p.q.Items))
	var aggs []AggSpec
	for i, it := range p.q.Items {
		items[i] = it
		if it.Expr != nil {
			items[i].Expr = rw(it.Expr)
		}
		if it.Agg != nil && !pushAgg {
			agg := *it.Agg
			agg.Args = make([]*PExpr, len(it.Agg.Args))
			for j, a := range it.Agg.Args {
				agg.Args[j] = rw(a)
			}
			items[i].Agg = &agg
			aggs = append(aggs, agg)
		}
	}
	return items, aggs
}

// readAbove is the set of extended-space columns the work above the
// joins reads: outputs, aggregate arguments, multi-table predicates,
// join keys and group keys. A stage emits only these.
func (p *planner) readAbove(items []BoundItem, aggs []AggSpec, preds []*PExpr, joinPreds []BoundPred) map[int]bool {
	need := map[int]bool{}
	read := func(x *PExpr) {
		if x.Kind == ExprCol {
			need[x.Col] = true
		}
	}
	for _, it := range items {
		it.Expr.Walk(read)
	}
	for _, a := range aggs {
		for _, arg := range a.Args {
			arg.Walk(read)
		}
	}
	for _, e := range preds {
		e.Walk(read)
	}
	for _, jp := range joinPreds {
		need[jp.LCol], need[jp.RCol] = true, true
	}
	for _, g := range p.q.GroupBy {
		need[g] = true
	}
	return need
}

// buildStage builds table ti's QPC stage into frag, over the fragment
// stream whose columns carry outCols: the predicates its cut left above,
// then the columns need holds, then the table's staged calls in _vN
// order (the order p.staged holds). It leaves frag.Stage nil when the
// stream would pass through unchanged, and returns the extended-space
// column each column of the fragment's QPCSchema carries.
func (p *planner) buildStage(frag *Fragment, ti int, outCols []int, preds []*PExpr, need map[int]bool) ([]int, error) {
	calls, width := 0, 0
	for _, sc := range p.staged {
		if p.cols[sc.col].table == ti {
			calls++
		}
	}
	for _, ext := range outCols {
		if need[ext] {
			width++
		}
	}
	if len(preds) == 0 && calls == 0 && width == len(outCols) {
		return outCols, nil
	}
	width += calls

	pos := make(map[int]int, len(outCols))
	for i, ext := range outCols {
		pos[ext] = i
	}
	st := &Chain{Projections: make([]Output, 0, width)}
	frag.Stage, frag.StageSchema = st, types.Schema{Columns: make([]types.Column, 0, width)}
	var err error
	if st.Predicates, err = p.rebase(pos, "shipped to the QPC", preds...); err != nil {
		return nil, err
	}
	emitted := make([]int, 0, width)
	emit := func(ext int, expr *PExpr) {
		c := types.Column{Name: p.cols[ext].name, Kind: p.cols[ext].kind}
		st.Projections = append(st.Projections, Output{Name: c.Name, Expr: expr})
		frag.StageSchema.Columns = append(frag.StageSchema.Columns, c)
		emitted = append(emitted, ext)
	}
	for i, ext := range outCols {
		if need[ext] {
			emit(ext, NewCol(i, p.cols[ext].kind))
		}
	}
	for _, sc := range p.staged {
		if p.cols[sc.col].table == ti {
			le, err := p.rebase(pos, "shipped to the QPC", sc.expr)
			if err != nil {
				return nil, err
			}
			emit(sc.col, le[0])
		}
	}
	return emitted, nil
}

// rebase rewrites the expressions' extended-space column references
// into the schema pos indexes (extended column -> position), for every
// chain the plan holds; a column pos lacks is an error saying the column
// is not what (extracted, shipped…).
func (p *planner) rebase(pos map[int]int, what string, es ...*PExpr) ([]*PExpr, error) {
	if len(es) == 0 {
		return nil, nil
	}
	var missing error
	out := make([]*PExpr, len(es))
	for i, e := range es {
		out[i] = e.Rewrite(func(x *PExpr) *PExpr {
			if x.Kind != ExprCol {
				return x
			}
			at, ok := pos[x.Col]
			if !ok {
				missing = fmt.Errorf("core: column %s not %s", p.cols[x.Col].name, what)
				return x
			}
			return NewCol(at, x.Ret)
		})
	}
	return out, missing
}

func (p *planner) build() (*Plan, error) {
	q := p.q
	// In a multi-table plan, each table's share of the work its cut
	// leaves above runs in its stage, below the joins.
	withStages := len(q.Tables) > 1
	above := p.pushCalls
	if withStages {
		above = p.stageCalls
		p.stages = make([]bool, len(q.Tables))
		for ti := range p.stages {
			p.stages[ti] = p.joinFanout(ti) >= 1
		}
	}

	// Step 1: whole-query aggregation placement comes straight off the
	// cut (section 3.8 aggregates are evaluated wherever the plan puts
	// them; a pushed aggregation is complete at the DAP; aggregation
	// over joins is pinned above every cut, so only table 0 can push).
	pushAgg := p.cut.table(0).asg.pushAgg

	// Step 2: the QPC's view of the select list, reading the shipped
	// calls as virtual columns.
	items, aggsAtQPC := p.qpcItems(pushAgg, above)

	// Step 3: the predicates the cuts left above — single-table ones
	// first, then multi-table ones. In a staged plan a single-table one
	// runs in its table's stage.
	var qpcPreds []*PExpr
	var stagePreds [][]*PExpr
	var multiPreds, joinPreds []BoundPred
	if withStages {
		stagePreds = make([][]*PExpr, len(q.Tables))
	}
	for pi, pred := range q.Preds {
		switch {
		case pred.EqJoin:
			joinPreds = append(joinPreds, pred)
		case len(pred.Tables) > 1:
			multiPreds = append(multiPreds, pred)
		case !p.cut.pushesPred(pi):
			e := p.pushCalls(pred.Expr)
			if ti := pred.Tables[0]; withStages {
				stagePreds[ti] = append(stagePreds[ti], e)
			} else {
				qpcPreds = append(qpcPreds, e)
			}
		}
	}
	for _, pred := range multiPreds {
		qpcPreds = append(qpcPreds, above(pred.Expr))
	}

	// Step 4: build fragments in join order. Equality predicates not
	// consumed as join steps (composite keys, redundant equalities)
	// become ordinary QPC filters.
	order, steps, leftover, err := p.orderJoins(joinPreds)
	if err != nil {
		return nil, err
	}
	for _, pred := range leftover {
		qpcPreds = append(qpcPreds, above(pred.Expr))
	}
	var need map[int]bool
	if withStages {
		p.nameStaged()
		need = p.readAbove(items, aggsAtQPC, qpcPreds, joinPreds)
	}
	plan := &Plan{SQL: q.SQL, Limit: q.Limit}

	combined := map[int]int{} // extended col idx -> combined idx
	fragOfTable := make([]int, len(q.Tables))

	semiJoin := p.wantSemiJoin(order, joinPreds)

	for fi, ti := range order {
		frag, outCols, err := p.buildFragment(ti, semiJoin, joinPreds)
		if err != nil {
			return nil, err
		}
		if withStages {
			if outCols, err = p.buildStage(frag, ti, outCols, stagePreds[ti], need); err != nil {
				return nil, err
			}
		}
		fragOfTable[ti] = fi
		base := plan.CombinedSchema.Arity()
		for pos, ext := range outCols {
			if ext >= 0 {
				combined[ext] = base + pos
			}
		}
		plan.CombinedSchema.Columns = append(plan.CombinedSchema.Columns, frag.QPCSchema().Columns...)
		plan.Fragments = append(plan.Fragments, frag)
	}

	// Join steps: rewrite eq columns into combined/right-fragment space.
	for _, st := range steps {
		right := fragOfTable[st.rightTable]
		lc, ok := combined[st.leftCol]
		if !ok {
			return nil, fmt.Errorf("core: join column %d not shipped", st.leftCol)
		}
		rcCombined, ok := combined[st.rightCol]
		if !ok {
			return nil, fmt.Errorf("core: join column %d not shipped", st.rightCol)
		}
		// Right column is relative to the right fragment's stream.
		rbase := 0
		for i := 0; i < right; i++ {
			rbase += plan.Fragments[i].QPCSchema().Arity()
		}
		plan.Joins = append(plan.Joins, JoinStep{
			RightFrag: right,
			LeftCol:   lc,
			RightCol:  rcCombined - rbase,
		})
	}

	// Step 5: QPC-side predicates.
	if plan.Predicates, err = p.rebase(combined, "available at QPC", qpcPreds...); err != nil {
		return nil, err
	}

	// Step 6: QPC-side aggregation.
	projInput := plan.CombinedSchema
	if len(aggsAtQPC) > 0 {
		for _, g := range q.GroupBy {
			ci, ok := combined[g]
			if !ok {
				return nil, fmt.Errorf("core: GROUP BY column not shipped")
			}
			plan.GroupBy = append(plan.GroupBy, ci)
		}
		for _, a := range aggsAtQPC {
			if a.Args, err = p.rebase(combined, "available at QPC", a.Args...); err != nil {
				return nil, err
			}
			plan.Aggregates = append(plan.Aggregates, a)
		}
		// Aggregation output schema: group columns then aggregates.
		projInput = types.Schema{}
		for _, g := range plan.GroupBy {
			projInput.Columns = append(projInput.Columns, plan.CombinedSchema.Columns[g])
		}
		for _, a := range plan.Aggregates {
			projInput.Columns = append(projInput.Columns, types.Column{Name: a.Name, Kind: a.Ret})
		}
	}

	// Step 7: final projections and result schema.
	aggPos := func(name string) int { return projInput.ColumnIndex(name) }
	for _, it := range items {
		var out Output
		switch {
		case it.Agg != nil && len(aggsAtQPC) > 0:
			idx := aggPos(it.Agg.Name)
			if idx < 0 {
				return nil, fmt.Errorf("core: aggregate output %q lost", it.Name)
			}
			out = Output{Name: it.Name, Expr: NewCol(idx, it.Agg.Ret)}
		case it.Agg != nil:
			// Aggregation pushed: the DAP emits it as a column.
			ci := projInput.ColumnIndex(it.Name)
			if ci < 0 {
				return nil, fmt.Errorf("core: pushed aggregate %q missing from fragment output", it.Name)
			}
			out = Output{Name: it.Name, Expr: NewCol(ci, it.Agg.Ret)}
		default:
			e := it.Expr
			if len(aggsAtQPC) > 0 {
				// Input is the aggregated schema: group columns by name.
				if e.Kind != ExprCol {
					return nil, fmt.Errorf("core: non-column output %q in aggregate query", it.Name)
				}
				ci := projInput.ColumnIndex(p.cols[e.Col].name)
				if ci < 0 {
					return nil, fmt.Errorf("core: group column %q lost", it.Name)
				}
				out = Output{Name: it.Name, Expr: NewCol(ci, e.Ret)}
			} else {
				re, err := p.rebase(combined, "available at QPC", e)
				if err != nil {
					return nil, err
				}
				out = Output{Name: it.Name, Expr: re[0]}
			}
		}
		plan.Projections = append(plan.Projections, out)
		plan.ResultSchema.Columns = append(plan.ResultSchema.Columns, types.Column{Name: it.Name, Kind: out.Expr.Ret})
	}

	// Step 8: ORDER BY over the result schema.
	for _, key := range q.OrderBy {
		idx := plan.ResultSchema.ColumnIndex(key.Column)
		if idx < 0 {
			return nil, fmt.Errorf("core: ORDER BY column %q is not an output", key.Column)
		}
		plan.OrderBy = append(plan.OrderBy, OrderSpec{Col: idx, Desc: key.Desc})
	}

	// LIMIT pushdown: with a single fragment, no QPC-side filtering,
	// aggregation or ordering, the DAP can stop producing early.
	if plan.Limit > 0 && len(plan.Fragments) == 1 && len(plan.Joins) == 0 &&
		len(plan.Predicates) == 0 && len(plan.Aggregates) == 0 &&
		len(plan.Fragments[0].Aggregates) == 0 && len(plan.OrderBy) == 0 {
		plan.Fragments[0].Limit = plan.Limit
	}

	plan.Est = p.estimates(plan, order)
	return plan, nil
}

// buildFragment transcribes table ti's cut into its fragment: the
// layout price derived for the winning assignment is the fragment. It
// returns the fragment plus, for each output column, the extended-space
// column it carries.
func (p *planner) buildFragment(ti int, semiJoin bool, joinPreds []BoundPred) (*Fragment, []int, error) {
	bt, d, tc := p.q.Tables[ti], p.cut.dag, p.cut.table(ti)
	frag := &Fragment{Site: bt.Def.Site, Table: bt.Def.Name, SemiJoinCol: -1,
		CutPoint: tc.Point, CutAlts: tc.Alts}

	// Columns read at the DAP: the cut's read set.
	local := map[int]int{}
	for pos, c := range tc.price.read {
		local[c] = pos
		frag.Cols = append(frag.Cols, c-bt.Offset)
		frag.InSchema.Columns = append(frag.InSchema.Columns, types.Column{Name: p.cols[c].name, Kind: p.cols[c].kind})
	}

	// Predicates: the cut's pushed predicate nodes, ordered by
	// rank(p) = (SF-1)/cost ascending.
	var pushed []int
	rank := map[int]float64{}
	for _, idx := range d.preds[ti] {
		if tc.asg.pushNode[idx] {
			pushed = append(pushed, idx)
			rank[idx] = p.predRank(d, d.nodes[idx])
		}
	}
	sort.SliceStable(pushed, func(i, j int) bool { return rank[pushed[i]] < rank[pushed[j]] })
	for _, idx := range pushed {
		le, err := p.rebase(local, "extracted", d.nodes[idx].expr)
		if err != nil {
			return nil, nil, err
		}
		frag.Predicates = append(frag.Predicates, le...)
	}

	// Semi-join filtering column (the join key, if participating).
	if semiJoin {
		for _, jp := range joinPreds {
			for _, jc := range []int{jp.LCol, jp.RCol} {
				if p.cols[jc].table == ti {
					if pos, ok := local[jc]; ok {
						frag.SemiJoinCol = pos
					}
				}
			}
		}
	}

	// The shipped row: group keys then aggregates under a pushed
	// aggregation, else the cut's raw columns then its call roots.
	var outCols []int
	ship := func(ext int, name string, kind types.Kind) {
		frag.OutSchema.Columns = append(frag.OutSchema.Columns, types.Column{Name: name, Kind: kind})
		outCols = append(outCols, ext)
	}
	if tc.asg.pushAgg {
		for _, g := range p.q.GroupBy {
			frag.GroupBy = append(frag.GroupBy, local[g])
			ship(g, p.cols[g].name, p.cols[g].kind)
		}
		for _, it := range p.q.Items {
			if it.Agg == nil {
				continue
			}
			agg := *it.Agg
			agg.Name = it.Name
			var err error
			if agg.Args, err = p.rebase(local, "extracted", it.Agg.Args...); err != nil {
				return nil, nil, err
			}
			frag.Aggregates = append(frag.Aggregates, agg)
			ship(-1, agg.Name, agg.Ret) // aggregate outputs are addressed by name
		}
	} else {
		for _, col := range tc.price.raw {
			frag.Projections = append(frag.Projections, Output{
				Name: p.cols[col].name,
				Expr: NewCol(local[col], p.cols[col].kind),
			})
			ship(col, p.cols[col].name, p.cols[col].kind)
		}
		roots := append([]int(nil), tc.price.roots...)
		sort.Slice(roots, func(i, j int) bool { return p.virt[roots[i]] < p.virt[roots[j]] }) // _vN order
		for _, idx := range roots {
			le, err := p.rebase(local, "extracted", d.nodes[idx].expr)
			if err != nil {
				return nil, nil, err
			}
			col := p.virt[idx]
			frag.Projections = append(frag.Projections, Output{Name: p.cols[col].name, Expr: le[0]})
			ship(col, p.cols[col].name, p.cols[col].kind)
		}
	}

	// Code-shipping manifest: every operator the fragment evaluates.
	if err := p.attachCode(frag); err != nil {
		return nil, nil, err
	}

	// Scatter targets for partitioned tables: prune by the single-table
	// predicates — each constrains the partition key the same way on
	// either side of the cut — then record one target per surviving
	// partition.
	if pl := bt.Def.Placement; pl != nil {
		var preds []*PExpr
		for _, idx := range d.preds[ti] {
			preds = append(preds, d.nodes[idx].expr)
		}
		keyExt := bt.Offset + bt.Def.Schema.ColumnIndex(pl.Key)
		keep := PrunePartitions(pl, keyExt, preds)
		frag.PartsTotal = len(pl.Parts)
		frag.PartKey = pl.Key
		for _, pi := range keep {
			part := pl.Parts[pi]
			frag.Parts = append(frag.Parts, PartTarget{
				ID: pi, Table: part.Table, Site: part.Replicas[0],
				Replicas: append([]string(nil), part.Replicas...),
			})
		}
		if len(frag.Parts) > 0 {
			frag.Site = frag.Parts[0].Site
		}
	}
	return frag, outCols, nil
}

// attachCode lists the classes the fragment needs from the repository.
func (p *planner) attachCode(frag *Fragment) error {
	seen := map[string]bool{}
	frag.Calls(func(name string) { seen[name] = true })
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rel, ok := p.opt.Cat.Repo().ActiveRelease(n)
		if !ok {
			return fmt.Errorf("core: operator %s has no class in the code repository", n)
		}
		frag.Code = append(frag.Code, CodeRef{
			Name: rel.Class, Version: rel.Tag, Checksum: rel.Digest, Caps: rel.Caps, Cost: rel.Cost,
		})
	}
	return nil
}

type joinStepInfo struct {
	rightTable        int
	leftCol, rightCol int // extended space
}

// orderJoins picks a left-deep join order (System R style over estimated
// stream volumes) and returns the table order, the join steps, and any
// equality predicates not consumed as join steps.
func (p *planner) orderJoins(joinPreds []BoundPred) ([]int, []joinStepInfo, []BoundPred, error) {
	n := len(p.q.Tables)
	if n == 1 {
		return []int{0}, nil, joinPreds, nil
	}
	// Order ascending by the volume each table's cut ships, so the
	// build sides of the hash joins are small.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.cut.table(order[a]).price.CVDT < p.cut.table(order[b]).price.CVDT
	})

	joined := map[int]bool{order[0]: true}
	var steps []joinStepInfo
	used := make([]bool, len(joinPreds))
	for _, ti := range order[1:] {
		found := false
		for pi, jp := range joinPreds {
			if used[pi] {
				continue
			}
			var lc, rc int
			switch {
			case joined[jp.LTab] && jp.RTab == ti:
				lc, rc = jp.LCol, jp.RCol
			case joined[jp.RTab] && jp.LTab == ti:
				lc, rc = jp.RCol, jp.LCol
			default:
				continue
			}
			steps = append(steps, joinStepInfo{rightTable: ti, leftCol: lc, rightCol: rc})
			used[pi] = true
			found = true
			break
		}
		if !found {
			return nil, nil, nil, fmt.Errorf("core: no join predicate connects table %s (cross products unsupported)", p.q.Tables[ti].Def.Name)
		}
		joined[ti] = true
	}
	var leftover []BoundPred
	for pi, jp := range joinPreds {
		if !used[pi] {
			leftover = append(leftover, jp)
		}
	}
	return order, steps, leftover, nil
}

// wantSemiJoin decides whether join fragments filter by key sets first.
// The 2-way semi-join protocol (section 5.4) coordinates exactly two
// sites; larger joins fall back to plain hash joins at the QPC.
func (p *planner) wantSemiJoin(order []int, joinPreds []BoundPred) bool {
	if len(order) != 2 || len(joinPreds) == 0 {
		return false
	}
	// Partitioned tables scatter over many sessions, which the 2-site
	// key exchange cannot coordinate.
	for _, ti := range order {
		if p.q.Tables[ti].Def.Placement != nil {
			return false
		}
	}
	switch p.opt.Strategy {
	case StrategyDataShip:
		return false
	case StrategyCodeShip:
		return true
	}
	// Auto: worthwhile when the shipped volume clearly exceeds the key
	// exchange volume.
	var total, keys float64
	for _, ti := range order {
		total += float64(p.cut.table(ti).price.CVDT)
	}
	for _, jp := range joinPreds {
		keys += float64(p.tableStats(p.cols[jp.LCol].table).RowCount) * float64(p.cols[jp.LCol].avgBytes)
		keys += float64(p.tableStats(p.cols[jp.RCol].table).RowCount) * float64(p.cols[jp.RCol].avgBytes)
	}
	return total > 4*keys
}

// estimates sums the winning cuts' prices into the plan's predictions.
// Partition pruning scales a table's price by the surviving fraction:
// only k of N shards are accessed or shipped.
func (p *planner) estimates(plan *Plan, order []int) PlanEstimates {
	var est PlanEstimates
	for fi, ti := range order {
		frac := 1.0
		if frag := plan.Fragments[fi]; frag.PartsTotal > 0 {
			frac = float64(len(frag.Parts)) / float64(frag.PartsTotal)
		}
		pr := p.cut.table(ti).price
		est.CVDA += int64(frac * float64(pr.CVDA))
		est.CVDT += int64(frac * float64(pr.CVDT))
		est.CVDTSelOnly += int64(frac * float64(pr.CVDTSelOnly))
		est.Cost += frac * (pr.NetMS + pr.CPUMS)
	}
	return est
}

// staticCostLine renders the verifier-derived static cost of a
// fragment's shipped classes for EXPLAIN. Every value is an integer
// copied from the release, so the line is byte-deterministic across
// runs (the golden tests rely on that).
func staticCostLine(code []CodeRef) string {
	var parts []string
	for _, ref := range code {
		ci := ref.Cost
		instrs := "unbounded"
		if ci.Bounded {
			instrs = fmt.Sprintf("%d", ci.BudgetInstrs)
		}
		parts = append(parts, fmt.Sprintf("%s instrs=%s fixed=%d per-byte=%d",
			ref.Name, instrs, ci.FixedUnits, ci.PerTripUnits))
	}
	return strings.Join(parts, "; ")
}

// Explain renders a human-readable plan summary.
func Explain(plan *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for: %s\n", plan.SQL)
	for i, f := range plan.Fragments {
		fmt.Fprintf(&b, "  fragment %d @ %s: table %s extract %v", i, f.Site, f.Table, f.Cols)
		if f.SemiJoinCol >= 0 {
			fmt.Fprintf(&b, " semijoin-on $%d", f.SemiJoinCol)
		}
		b.WriteByte('\n')
		if f.PartsTotal > 0 {
			targets := make([]string, len(f.Parts))
			for j, pt := range f.Parts {
				targets[j] = fmt.Sprintf("p%d @ %s", pt.ID, pt.Site)
			}
			fmt.Fprintf(&b, "    partitions: %d/%d on %s [%s]\n",
				len(f.Parts), f.PartsTotal, f.PartKey, strings.Join(targets, ", "))
		}
		if f.CutPoint != "" {
			fmt.Fprintf(&b, "    cut: %s (%d cut(s) priced)\n", f.CutPoint, f.CutAlts)
		}
		explainChain(&b, &f.Chain, "    ")
		if len(f.Code) > 0 {
			names := make([]string, len(f.Code))
			for j, c := range f.Code {
				names[j] = c.Name
				if len(c.Caps) > 0 {
					names[j] += " [host: " + strings.Join(c.Caps, ",") + "]"
				}
			}
			fmt.Fprintf(&b, "    ship code: %s\n", strings.Join(names, ", "))
			fmt.Fprintf(&b, "    static cost: %s\n", staticCostLine(f.Code))
		}
		if f.Stage != nil {
			explainChain(&b, f.Stage, "    qpc ")
		}
	}
	for _, j := range plan.Joins {
		fmt.Fprintf(&b, "  hash join: combined[$%d] = frag%d[$%d]\n", j.LeftCol, j.RightFrag, j.RightCol)
	}
	explainChain(&b, &plan.Chain, "  qpc ")
	fmt.Fprintf(&b, "  estimates: CVDA=%d CVDT=%d CVRF=%.6f cost=%.1fms\n",
		plan.Est.CVDA, plan.Est.CVDT, plan.Est.CVRF(), plan.Est.Cost)
	return b.String()
}

// explainChain renders a chain's operators one line each, every line
// starting with lead: its indent, and "qpc " for a chain the QPC runs.
func explainChain(b *strings.Builder, ch *Chain, lead string) {
	for _, p := range ch.Predicates {
		fmt.Fprintf(b, "%sfilter %s\n", lead, p)
	}
	for _, a := range ch.Aggregates {
		fmt.Fprintf(b, "%saggregate %s = %s(...)\n", lead, a.Name, a.Func)
	}
	for _, o := range ch.Projections {
		fmt.Fprintf(b, "%sproject %s = %s\n", lead, o.Name, o.Expr)
	}
}
