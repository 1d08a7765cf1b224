package core

import (
	"fmt"
	"sort"
	"strings"

	"mocha/internal/catalog"
	"mocha/internal/types"
	"mocha/internal/vm"
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

// HealthOracle lets the optimizer see the coordinator's live view of
// site health. A degraded site (circuit breaker open: its link is flaky
// or shipped code keeps failing there) is planned under data shipping
// regardless of VRF — the DAP only extracts attributes, so nothing
// needs deploying or resuming at the sick site beyond the raw scan.
type HealthOracle interface {
	Degraded(site string) bool
}

// Optimizer builds physical plans from bound queries.
type Optimizer struct {
	Cat      *catalog.Catalog
	Strategy Strategy
	Model    CostModel
	// Health, when set, demotes degraded sites to data shipping.
	Health HealthOracle
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
	// virtual column the QPC reads its result by.
	virt map[int]int
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

// siteDegraded reports whether table ti's site is degraded per the
// health oracle. Partitioned tables are never degraded at plan time:
// a sick replica is handled by execution-time failover to a sibling,
// not by re-planning the whole table under data shipping.
func (p *planner) siteDegraded(ti int) bool {
	if p.q.Tables[ti].Def.Placement != nil {
		return false
	}
	return p.opt.Health != nil && p.opt.Health.Degraded(p.q.Tables[ti].Def.Site)
}

// strategyFor resolves the placement strategy for table ti: the global
// strategy, demoted to data shipping when the site is degraded.
func (p *planner) strategyFor(ti int) Strategy {
	if p.siteDegraded(ti) {
		return StrategyDataShip
	}
	return p.opt.Strategy
}

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

func (p *planner) build() (*Plan, error) {
	q := p.q

	// Step 1: whole-query aggregation placement comes straight off the
	// cut (section 3.8 aggregates are evaluated wherever the plan puts
	// them; a pushed aggregation is complete at the DAP; aggregation
	// over joins is pinned above every cut, so only table 0 can push).
	pushAgg := p.cut.table(0).asg.pushAgg

	// Step 2: the QPC's view of the select list, reading the shipped
	// calls as virtual columns.
	items := make([]BoundItem, len(q.Items))
	var aggsAtQPC []AggSpec
	for i, it := range q.Items {
		items[i] = it
		if it.Expr != nil {
			items[i].Expr = p.pushCalls(it.Expr)
		}
		if it.Agg != nil && !pushAgg {
			agg := *it.Agg
			agg.Args = make([]*PExpr, len(it.Agg.Args))
			for j, a := range it.Agg.Args {
				agg.Args[j] = p.pushCalls(a)
			}
			items[i].Agg = &agg
			aggsAtQPC = append(aggsAtQPC, agg)
		}
	}

	// Step 3: the predicates the cuts left above — single-table ones
	// first, then multi-table ones.
	var qpcPreds []*PExpr
	var multiPreds, joinPreds []BoundPred
	for pi, pred := range q.Preds {
		switch {
		case pred.EqJoin:
			joinPreds = append(joinPreds, pred)
		case len(pred.Tables) > 1:
			multiPreds = append(multiPreds, pred)
		case !p.cut.pushesPred(pi):
			qpcPreds = append(qpcPreds, p.pushCalls(pred.Expr))
		}
	}
	for _, pred := range multiPreds {
		qpcPreds = append(qpcPreds, p.pushCalls(pred.Expr))
	}

	// Step 4: build fragments in join order. Equality predicates not
	// consumed as join steps (composite keys, redundant equalities)
	// become ordinary QPC filters.
	order, steps, leftover, err := p.orderJoins(joinPreds)
	if err != nil {
		return nil, err
	}
	for _, pred := range leftover {
		qpcPreds = append(qpcPreds, p.pushCalls(pred.Expr))
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
		fragOfTable[ti] = fi
		base := plan.CombinedSchema.Arity()
		for pos, ext := range outCols {
			if ext >= 0 {
				combined[ext] = base + pos
			}
		}
		plan.CombinedSchema.Columns = append(plan.CombinedSchema.Columns, frag.OutSchema.Columns...)
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
		// Right column is relative to the right fragment's output.
		rbase := 0
		for i := 0; i < right; i++ {
			rbase += plan.Fragments[i].OutSchema.Arity()
		}
		plan.Joins = append(plan.Joins, JoinStep{
			RightFrag: right,
			LeftCol:   lc,
			RightCol:  rcCombined - rbase,
		})
	}

	remap := func(e *PExpr) (*PExpr, error) {
		var missing error
		out := e.Rewrite(func(x *PExpr) *PExpr {
			if x.Kind == ExprCol {
				ci, ok := combined[x.Col]
				if !ok {
					missing = fmt.Errorf("core: column %s not available at QPC", p.cols[x.Col].name)
					return x
				}
				return NewCol(ci, x.Ret)
			}
			return x
		})
		return out, missing
	}

	// Step 5: QPC-side predicates.
	for _, e := range qpcPreds {
		re, err := remap(e)
		if err != nil {
			return nil, err
		}
		plan.Predicates = append(plan.Predicates, re)
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
			ra := a
			ra.Args = make([]*PExpr, len(a.Args))
			for j, arg := range a.Args {
				e, err := remap(arg)
				if err != nil {
					return nil, err
				}
				ra.Args[j] = e
			}
			plan.Aggregates = append(plan.Aggregates, ra)
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
				re, err := remap(e)
				if err != nil {
					return nil, err
				}
				out = Output{Name: it.Name, Expr: re}
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
		Degraded: p.siteDegraded(ti), CutPoint: tc.Point, CutAlts: tc.Alts}

	// Columns read at the DAP: the cut's read set.
	local := map[int]int{}
	for pos, c := range tc.price.read {
		local[c] = pos
		frag.Cols = append(frag.Cols, c-bt.Offset)
		frag.InSchema.Columns = append(frag.InSchema.Columns, types.Column{Name: p.cols[c].name, Kind: p.cols[c].kind})
	}

	localize := func(e *PExpr) (*PExpr, error) {
		var missing error
		out := e.Rewrite(func(x *PExpr) *PExpr {
			if x.Kind == ExprCol {
				pos, ok := local[x.Col]
				if !ok {
					missing = fmt.Errorf("core: internal: column %d not extracted", x.Col)
					return x
				}
				return NewCol(pos, x.Ret)
			}
			return x
		})
		return out, missing
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
		le, err := localize(d.nodes[idx].expr)
		if err != nil {
			return nil, nil, err
		}
		frag.Predicates = append(frag.Predicates, le)
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
			agg.Args = make([]*PExpr, len(it.Agg.Args))
			for j, a := range it.Agg.Args {
				la, err := localize(a)
				if err != nil {
					return nil, nil, err
				}
				agg.Args[j] = la
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
			le, err := localize(d.nodes[idx].expr)
			if err != nil {
				return nil, nil, err
			}
			col := p.virt[idx]
			frag.Projections = append(frag.Projections, Output{Name: p.cols[col].name, Expr: le})
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
	addExpr := func(e *PExpr) {
		e.Walk(func(x *PExpr) {
			if x.Kind == ExprCall {
				seen[x.Func] = true
			}
		})
	}
	for _, e := range frag.Predicates {
		addExpr(e)
	}
	for _, o := range frag.Projections {
		addExpr(o.Expr)
	}
	for _, a := range frag.Aggregates {
		seen[a.Func] = true
		for _, arg := range a.Args {
			addExpr(arg)
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cls, ok := p.opt.Cat.Repo().Get(n)
		if !ok {
			return fmt.Errorf("core: operator %s has no class in the code repository", n)
		}
		ref := CodeRef{
			Name: cls.Name, Version: cls.Version, Checksum: cls.Checksum,
			Caps: strings.Join(cls.Caps, ","),
		}
		if !cls.Cost.IsZero() {
			ref.Cost = cls.Cost.String()
		}
		frag.Code = append(frag.Code, ref)
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
	// The semi-join protocol runs two coordinated phases per site and its
	// key streams cannot be restarted past the replay window; keep
	// degraded sites on the simple single-stream protocol. Partitioned
	// tables scatter over many sessions, which the 2-site key exchange
	// cannot coordinate either.
	for _, ti := range order {
		if p.siteDegraded(ti) || p.q.Tables[ti].Def.Placement != nil {
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
// copied from the release manifest, so the line is byte-deterministic
// across runs (the golden tests rely on that).
func staticCostLine(code []CodeRef) string {
	var parts []string
	for _, ref := range code {
		if ref.Cost == "" {
			continue
		}
		ci, err := vm.ParseCostInfo(ref.Cost)
		if err != nil {
			continue
		}
		instrs := "unbounded"
		if ci.Bounded {
			instrs = fmt.Sprintf("%d", ci.BudgetInstrs)
		}
		parts = append(parts, fmt.Sprintf("%s instrs=%s fixed=%d per-byte=%d scratch=%dB %s",
			ref.Name, instrs, ci.FixedUnits, ci.PerTripUnits, ci.ScratchBytes, ci.Purity))
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
		if f.Degraded {
			b.WriteString(" [degraded: data shipping forced by site health]")
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
		for _, p := range f.Predicates {
			fmt.Fprintf(&b, "    filter %s\n", p)
		}
		for _, a := range f.Aggregates {
			fmt.Fprintf(&b, "    aggregate %s = %s(...)\n", a.Name, a.Func)
		}
		for _, o := range f.Projections {
			fmt.Fprintf(&b, "    project %s = %s\n", o.Name, o.Expr)
		}
		if len(f.Code) > 0 {
			names := make([]string, len(f.Code))
			for j, c := range f.Code {
				names[j] = c.Name
				if c.Caps != "" {
					names[j] += " [host: " + c.Caps + "]"
				}
			}
			fmt.Fprintf(&b, "    ship code: %s\n", strings.Join(names, ", "))
			if line := staticCostLine(f.Code); line != "" {
				fmt.Fprintf(&b, "    static cost: %s\n", line)
			}
		}
	}
	for _, j := range plan.Joins {
		fmt.Fprintf(&b, "  hash join: combined[$%d] = frag%d[$%d]\n", j.LeftCol, j.RightFrag, j.RightCol)
	}
	for _, pr := range plan.Predicates {
		fmt.Fprintf(&b, "  qpc filter %s\n", pr)
	}
	for _, a := range plan.Aggregates {
		fmt.Fprintf(&b, "  qpc aggregate %s = %s(...)\n", a.Name, a.Func)
	}
	for _, o := range plan.Projections {
		fmt.Fprintf(&b, "  qpc project %s = %s\n", o.Name, o.Expr)
	}
	fmt.Fprintf(&b, "  estimates: CVDA=%d CVDT=%d CVRF=%.6f cost=%.1fms\n",
		plan.Est.CVDA, plan.Est.CVDT, plan.Est.CVRF(), plan.Est.Cost)
	return b.String()
}
