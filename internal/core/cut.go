package core

import (
	"fmt"
	"sort"
	"strings"

	"mocha/internal/vm"
)

// This file implements whole-plan DAG-cut placement (DESIGN.md §15).
// Instead of deciding each operator's site in isolation by its VRF, the
// planner builds a typed operator/expression DAG for the whole query,
// enumerates the feasible cuts of that DAG, prices every cut with the
// section-4 cost model — network transfer of the shipped volume, MVM
// compute below the cut (verifier-derived static stamps when the class
// carries one), native compute above it — and emits the cheapest one.
// Everything below a table's cut runs at its DAP as shipped MVM
// fragments; everything above runs at the QPC.
//
// Joins, aggregates over joins, cross-table expressions and the final
// result assembly are pinned above every cut, so no free choice ever
// spans two sites: the globally optimal cut decomposes into one
// independent cut per table, and each DAP of a multi-site plan gets its
// own split point (a degraded site collapses to scan-only while its
// healthy join partner keeps a deep cut).

// maxCutChoices bounds the exhaustive enumeration per table. A table
// with more free nodes than this has over 2^maxCutChoices cuts; the
// planner then builds its cut by greedyCut instead of stalling.
// Realistic queries have a handful of choices.
const maxCutChoices = 14

// cutNode is one cuttable operator of the query DAG: a single-table
// predicate or a single-table call subexpression. It carries everything
// price reads about the operator itself: the bytes it consumes and
// produces, its selectivity, and its CPU cost — the verifier's static
// stamp when the backing class carries one, the catalog's relative
// per-byte constant otherwise. A predicate's calls are its kids, each
// priced as its own node; the predicate's own cost is the comparison,
// charged only when it contains no call.
type cutNode struct {
	pred  bool // predicate node (else call node)
	table int

	expr *PExpr // source-space (sub)expression
	kids []int  // call nodes nested inside this one (push this ⇒ push kids)

	argBytes int     // source bytes consumed per input tuple
	resBytes int     // result bytes per input tuple (calls)
	sf       float64 // selectivity (1 for calls)
	costPB   float64 // relative per-byte CPU cost of the node's own operator

	static    vm.CostInfo // verifier stamp of the backing class
	hasStatic bool

	pinAbove bool // must run at the QPC (no shippable class)
}

// aggCutNode models the whole-query aggregation when it hangs off a
// single table (the only shape that can move below a cut; aggregation
// over a join is pinned above).
type aggCutNode struct {
	table    int
	funcs    string  // aggregate functions, "+"-joined, for the cut point
	groups   int64   // estimated output rows
	keyBytes int     // group-key bytes per output row
	resBytes int     // aggregate-result bytes per output row
	argBytes int     // argument bytes consumed per input tuple
	costPB   float64 // summed relative per-byte CPU cost of the aggregates
	pinAbove bool    // aggregation over a join, or partial groups spanning shards
}

// queryDAG is the typed whole-query model the cut search ranks: the
// cuttable predicate/call nodes of every table and the optional
// single-table aggregation. Joins, multi-table predicates and the final
// projection never move, so they are not modelled.
type queryDAG struct {
	nodes    []*cutNode
	byKey    map[string]int // cutKey -> call node index
	predNode []int          // parallel to BoundQuery.Preds: node index, -1 unless single-table
	preds    [][]int        // per table: predicate nodes, in query order
	calls    [][]int        // per table: call nodes, post-order (kids first)
	agg      *aggCutNode    // whole-query aggregation, nil when absent
}

func cutKey(ti int, e *PExpr) string { return fmt.Sprintf("%d|%s", ti, e.String()) }

// pushedCall returns the node of e when it is a call of table ti that
// asg runs below the cut.
func (d *queryDAG) pushedCall(ti int, e *PExpr, asg *cutAssignment) (int, bool) {
	if e.Kind != ExprCall {
		return 0, false
	}
	idx, ok := d.byKey[cutKey(ti, e)]
	return idx, ok && asg.pushNode[idx]
}

// cutAssignment is one candidate cut of a single table: which of its
// nodes run below (at the DAP) and whether the aggregation does.
type cutAssignment struct {
	pushNode []bool // parallel to queryDAG.nodes
	pushAgg  bool
}

// cutPrice is everything anyone needs to know about one table's cut.
// The search ranks by (NetMS, CPUMS); the winning cut's volumes and
// times are the table's share of Plan.Est; CVDT is the stream volume
// join ordering and the semi-join decision read; read, raw and roots
// are the layout those volumes were priced on, and buildFragment
// transcribes them into the fragment's Cols, Projections and OutSchema.
type cutPrice struct {
	NetMS float64 // transfer time of CVDT
	CPUMS float64 // MVM compute below the cut plus native compute above it

	CVDA        int64 // bytes the DAP reads from the source
	CVDT        int64 // bytes shipped to the QPC
	CVDTSelOnly int64 // CVDT by selectivity and cardinality alone, at full tuple width

	read  []int // source columns the DAP extracts, ascending
	raw   []int // source columns shipped as they are (group keys under a pushed aggregation), ascending
	roots []int // call nodes whose results ship as virtual columns, ascending
	below []int // maximal call subtrees running below the cut: roots plus the calls pushed predicates consume
}

// cheaper is the rank order: transfer time first, CPU as the
// tie-breaker. The paper's testbed is network-bound (§4: a 10 Mbps link
// dwarfs operator compute), so volume decides and CPU only separates
// cuts that ship the same bytes.
func (a cutPrice) cheaper(b cutPrice) bool {
	return a.NetMS < b.NetMS || (a.NetMS == b.NetMS && a.CPUMS < b.CPUMS)
}

// tableCut is the chosen cut for one table, consumed by the planner's
// emission pass: every placement decision is a lookup here.
type tableCut struct {
	asg   cutAssignment
	price cutPrice
	Alts  int    // how many feasible cuts the search priced
	Point string // human-readable split point for EXPLAIN / plan XML
}

// Cut is the whole plan's placement: one independent cut per table.
type Cut struct {
	dag    *queryDAG
	tables []tableCut
}

// buildDAG assembles the typed operator/expression DAG from the bound
// query. Call nodes are registered post-order (kids before parents),
// walking items before predicates, so node indexes are deterministic
// and a node's kids always precede it.
func (p *planner) buildDAG() *queryDAG {
	q := p.q
	d := &queryDAG{
		byKey:    map[string]int{},
		predNode: make([]int, len(q.Preds)),
		preds:    make([][]int, len(q.Tables)),
		calls:    make([][]int, len(q.Tables)),
	}

	// addCalls registers the single-table call subtrees of an
	// expression and returns the maximal registered nodes within it —
	// the kid lists of enclosing nodes.
	var addCalls func(e *PExpr) []int
	addCalls = func(e *PExpr) []int {
		if e == nil {
			return nil
		}
		var kids []int
		for _, a := range e.Args {
			kids = append(kids, addCalls(a)...)
		}
		if e.Kind != ExprCall {
			return kids
		}
		ti := p.exprTable(e)
		if ti < 0 {
			// Cross-table or constant-only calls are pinned at the QPC.
			// Their single-table argument subtrees (already registered)
			// stay cuttable — that is the mid-expression split: the
			// inner AvgEnergy of a cross-site Diff can ship while Diff
			// itself assembles the two 8-byte results above the cut.
			return kids
		}
		key := cutKey(ti, e)
		if idx, ok := d.byKey[key]; ok {
			return []int{idx}
		}
		n := &cutNode{table: ti, expr: e, kids: kids, sf: 1}
		n.argBytes = p.exprBytes(e)
		n.resBytes = callResultBytes(e, p.opt.Cat.Ops(), n.argBytes)
		if def, ok := p.opt.Cat.Ops().Lookup(e.Func); ok {
			n.costPB = def.CPUCostPerByte
		}
		if rel, ok := p.opt.Cat.Repo().ActiveRelease(e.Func); ok {
			if !rel.Cost.IsZero() {
				n.static, n.hasStatic = rel.Cost, true
			}
		} else {
			n.pinAbove = true // no shippable class
		}
		idx := len(d.nodes)
		d.nodes = append(d.nodes, n)
		d.byKey[key] = idx
		d.calls[ti] = append(d.calls[ti], idx)
		return []int{idx}
	}

	for _, it := range q.Items {
		addCalls(it.Expr)
		if it.Agg != nil {
			for _, a := range it.Agg.Args {
				addCalls(a)
			}
		}
	}

	for pi, pred := range q.Preds {
		d.predNode[pi] = -1
		if pred.EqJoin {
			continue
		}
		kids := addCalls(pred.Expr) // single-table subtrees of multi-table predicates stay cuttable
		if len(pred.Tables) != 1 {
			continue
		}
		ti := pred.Tables[0]
		n := &cutNode{pred: true, table: ti, expr: pred.Expr, kids: kids}
		n.sf = predicateSelectivity(pred.Expr, q.Tables[ti].Def.Name, p.opt.Cat)
		n.argBytes = p.exprBytes(pred.Expr)
		if firstCall(pred.Expr) == nil {
			n.costPB = simplePredCostPerByte
		}
		d.predNode[pi] = len(d.nodes)
		d.preds[ti] = append(d.preds[ti], len(d.nodes))
		d.nodes = append(d.nodes, n)
	}

	if q.HasAggregate {
		d.agg = p.buildAggNode()
	}
	return d
}

// buildAggNode models the whole-query aggregation.
func (p *planner) buildAggNode() *aggCutNode {
	q := p.q
	if len(q.Tables) != 1 {
		return &aggCutNode{table: -1, pinAbove: true} // aggregation over a join
	}
	a := &aggCutNode{table: 0, groups: p.opt.Model.DefaultGroups}
	if rows := p.tableRows(0); a.groups > rows {
		a.groups = rows
	}
	for _, g := range q.GroupBy {
		a.keyBytes += p.cols[g].avgBytes
	}
	var funcs []string
	for _, it := range q.Items {
		if it.Agg == nil {
			continue
		}
		var ab int
		for _, arg := range it.Agg.Args {
			ab += p.exprBytes(arg)
		}
		a.argBytes += ab
		if def, ok := p.opt.Cat.Ops().Lookup(it.Agg.Func); ok {
			a.resBytes += def.EstimateResultBytes(ab)
			a.costPB += def.CPUCostPerByte
		} else if w := it.Agg.Ret.FixedWireSize(); w > 0 {
			a.resBytes += w
		}
		funcs = append(funcs, it.Agg.Func)
	}
	a.funcs = strings.Join(funcs, "+")
	// A pushed aggregation over a scattered table is complete per shard
	// only when every group lives in exactly one shard, i.e. the
	// partition key is a grouping column. Any other grouping (or a
	// global aggregate) would return one partial row per shard, so the
	// aggregation is pinned above the cut to merge at the QPC.
	if pl := q.Tables[0].Def.Placement; pl != nil && len(pl.Parts) > 1 {
		keyExt := q.Tables[0].Offset + q.Tables[0].Def.Schema.ColumnIndex(pl.Key)
		a.pinAbove = true
		for _, gb := range q.GroupBy {
			if gb == keyExt {
				a.pinAbove = false
			}
		}
	}
	return a
}

// exprBytes is the average source bytes per tuple an expression
// consumes: the summed average sizes of the distinct columns it reads.
func (p *planner) exprBytes(e *PExpr) int {
	var total int
	for _, col := range e.Columns() {
		total += p.cols[col].avgBytes
	}
	return total
}

// tableRows is table ti's cardinality for pricing; a table without
// stats is priced as one row so cuts still compare by row width.
func (p *planner) tableRows(ti int) int64 {
	if rows := p.tableStats(ti).RowCount; rows > 0 {
		return rows
	}
	return 1
}

// buildCut runs the cut search over the query DAG: one independent
// cut per table, each under that table's resolved strategy (forced
// strategies and degraded sites have exactly one feasible cut).
func (p *planner) buildCut() *Cut {
	d := p.buildDAG()
	c := &Cut{dag: d, tables: make([]tableCut, len(p.q.Tables))}
	for ti := range p.q.Tables {
		c.tables[ti] = p.cutTable(d, ti)
	}
	return c
}

func (c *Cut) table(ti int) *tableCut { return &c.tables[ti] }

// pushesPred reports whether the cut runs query predicate pi below.
func (c *Cut) pushesPred(pi int) bool {
	idx := c.dag.predNode[pi]
	return idx >= 0 && c.tables[c.dag.nodes[idx].table].asg.pushNode[idx]
}

// cutTable picks table ti's cut. Pinning rules: degraded sites and
// forced data shipping admit only the scan-only cut; forced code
// shipping admits only the maximal feasible cut; nodes without a
// shippable class are pinned above; aggregation over a join is pinned
// above; a pushed aggregation requires every predicate and call of its
// table below the cut (the fragment groups filtered rows — nothing of
// the table survives for the QPC to evaluate).
func (p *planner) cutTable(d *queryDAG, ti int) tableCut {
	aggHere := d.agg != nil && d.agg.table == ti && !d.agg.pinAbove
	switch p.strategyFor(ti) {
	case StrategyDataShip:
		asg := d.scanOnly()
		return finishCut(d, ti, asg, p.price(d, ti, &asg), 1)
	case StrategyCodeShip:
		asg := d.scanOnly()
		for _, idx := range append(append([]int{}, d.calls[ti]...), d.preds[ti]...) { // kids first
			n := d.nodes[idx]
			asg.pushNode[idx] = !n.pinAbove && kidsPushed(&asg, n)
		}
		asg.pushAgg = aggHere && feasibleCut(d, ti, &cutAssignment{pushNode: asg.pushNode, pushAgg: true})
		return finishCut(d, ti, asg, p.price(d, ti, &asg), 1)
	}
	free := d.freeNodes(ti)
	nchoice := len(free)
	if aggHere {
		nchoice++
	}
	if nchoice > maxCutChoices {
		return p.greedyCut(d, ti, free, aggHere)
	}
	return p.rankedCut(d, ti, free, aggHere)
}

func (d *queryDAG) scanOnly() cutAssignment {
	return cutAssignment{pushNode: make([]bool, len(d.nodes))}
}

// tableNodes lists table ti's nodes: predicates in query order, then
// calls bottom-up.
func (d *queryDAG) tableNodes(ti int) []int {
	return append(append([]int{}, d.preds[ti]...), d.calls[ti]...)
}

// freeNodes lists the nodes of table ti the search may place on either
// side of the cut.
func (d *queryDAG) freeNodes(ti int) []int {
	var free []int
	for _, idx := range d.tableNodes(ti) {
		if !d.nodes[idx].pinAbove {
			free = append(free, idx)
		}
	}
	return free
}

func kidsPushed(asg *cutAssignment, n *cutNode) bool {
	for _, k := range n.kids {
		if !asg.pushNode[k] {
			return false
		}
	}
	return true
}

// rankedCut enumerates every feasible cut of table ti, prices each and
// keeps the cheapest. Ties keep the first in enumeration order (fewest
// pushed operators), which makes the choice deterministic.
func (p *planner) rankedCut(d *queryDAG, ti int, free []int, aggHere bool) tableCut {
	nchoice := len(free)
	if aggHere {
		nchoice++
	}
	var best cutAssignment
	var bestPrice cutPrice
	alts := 0
	for mask := 0; mask < 1<<nchoice; mask++ {
		asg := d.scanOnly()
		for i, idx := range free {
			asg.pushNode[idx] = mask&(1<<i) != 0
		}
		asg.pushAgg = aggHere && mask&(1<<len(free)) != 0
		if !feasibleCut(d, ti, &asg) {
			continue
		}
		pr := p.price(d, ti, &asg)
		if alts == 0 || pr.cheaper(bestPrice) {
			best, bestPrice = asg, pr
		}
		alts++
	}
	return finishCut(d, ti, best, bestPrice, alts)
}

// greedyCut is the guard for a table with more than maxCutChoices free
// nodes, whose cuts cannot be enumerated: one pass over the free nodes
// — predicates, then calls bottom-up, then the aggregation — moving
// each below the cut (with the calls nested in it) iff that makes the
// cut built so far cheaper. It prices at most one cut per node and
// consults nothing but price.
func (p *planner) greedyCut(d *queryDAG, ti int, free []int, aggHere bool) tableCut {
	cur := d.scanOnly()
	curPrice := p.price(d, ti, &cur)
	alts := 1
	try := func(push func(*cutAssignment)) {
		cand := cutAssignment{pushNode: append([]bool(nil), cur.pushNode...)}
		push(&cand)
		if !feasibleCut(d, ti, &cand) {
			return
		}
		alts++
		if pr := p.price(d, ti, &cand); pr.cheaper(curPrice) {
			cur, curPrice = cand, pr
		}
	}
	for _, idx := range free {
		if cur.pushNode[idx] {
			continue
		}
		try(func(a *cutAssignment) { pushSubtree(d, a, idx) })
	}
	if aggHere {
		try(func(a *cutAssignment) {
			for _, idx := range free {
				pushSubtree(d, a, idx)
			}
			a.pushAgg = true
		})
	}
	return finishCut(d, ti, cur, curPrice, alts)
}

// pushSubtree moves a node below the cut together with the calls
// nested inside it.
func pushSubtree(d *queryDAG, asg *cutAssignment, idx int) {
	asg.pushNode[idx] = true
	for _, k := range d.nodes[idx].kids {
		pushSubtree(d, asg, k)
	}
}

// feasibleCut checks the constraints of an assignment: nothing pinned
// above is pushed, a pushed node has its nested calls below with it,
// and a pushed aggregation has the whole table below the cut.
func feasibleCut(d *queryDAG, ti int, asg *cutAssignment) bool {
	for _, idx := range d.tableNodes(ti) {
		n := d.nodes[idx]
		if asg.pushNode[idx] && (n.pinAbove || !kidsPushed(asg, n)) {
			return false
		}
		if asg.pushAgg && !asg.pushNode[idx] {
			return false
		}
	}
	return true
}

// nodeMS is the modeled CPU time of running node n's own operator over
// rows input tuples: in the MVM below the cut — from the verifier's
// static stamp when the class carries one, the catalog's per-byte
// constant otherwise — or natively at the QPC above it.
func (m CostModel) nodeMS(n *cutNode, rows int64, below bool) float64 {
	if below && n.hasStatic {
		return m.CompMSStatic(rows, int64(n.argBytes), n.static)
	}
	return m.CompMS(rows*int64(n.argBytes), n.costPB, below)
}

// callClosure returns the given call nodes plus every call nested
// below them, ascending — each executes once per input row.
func (d *queryDAG) callClosure(roots []int) []int {
	seen := map[int]bool{}
	var visit func(int)
	visit = func(idx int) {
		if seen[idx] {
			return
		}
		seen[idx] = true
		for _, k := range d.nodes[idx].kids {
			visit(k)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return sortedKeys(seen)
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// predRank is the predicate ordering metric rank(p) = (SF−1)/cost from
// [HS93]: cheap, highly selective predicates run first. Cost is what
// price charges for evaluating the predicate below the cut on one
// tuple — the predicate's own comparison plus every call inside it.
func (p *planner) predRank(d *queryDAG, n *cutNode) float64 {
	cost := p.opt.Model.nodeMS(n, 1, true)
	for _, idx := range d.callClosure(n.kids) {
		cost += p.opt.Model.nodeMS(d.nodes[idx], 1, true)
	}
	if cost <= 0 {
		cost = 1e-9
	}
	return (n.sf - 1) / cost
}

// price is the one cost function (section 4: Cost = CompCost +
// NetworkCost). It prices one cut of table ti — every byte and every
// millisecond the optimizer reports or decides by comes from here.
//
// What ships is what the QPC still reads: the raw columns and pushed
// call results referenced by the select list, by predicates left above
// the cut, by join keys and by a QPC-side aggregation. A predicate
// below the cut ships nothing of its own — its argument columns and
// the results of calls nested in it are consumed at the DAP.
func (p *planner) price(d *queryDAG, ti int, asg *cutAssignment) cutPrice {
	model := p.opt.Model
	rows := p.tableRows(ti)

	raw, roots, below := map[int]bool{}, map[int]bool{}, map[int]bool{}
	read := map[int]bool{} // every source column the DAP extracts
	needCol := func(col int, ship bool) {
		if p.cols[col].table == ti {
			read[col] = true
			if ship {
				raw[col] = true
			}
		}
	}
	// scan walks an expression evaluated at the QPC (ship) or inside a
	// pushed predicate (!ship), stopping at pushed call subtrees.
	var scan func(e *PExpr, ship bool)
	scan = func(e *PExpr, ship bool) {
		if e == nil {
			return
		}
		if idx, ok := d.pushedCall(ti, e, asg); ok {
			below[idx] = true
			if ship {
				roots[idx] = true
			}
			return
		}
		if e.Kind == ExprCol {
			needCol(e.Col, ship)
		}
		for _, a := range e.Args {
			scan(a, ship)
		}
	}
	for _, it := range p.q.Items {
		scan(it.Expr, true)
		if it.Agg == nil {
			continue
		}
		for _, a := range it.Agg.Args {
			if !asg.pushAgg {
				scan(a, true)
				continue
			}
			for _, col := range a.Columns() {
				needCol(col, false)
			}
		}
	}
	sf := 1.0
	for pi, pred := range p.q.Preds {
		switch idx := d.predNode[pi]; {
		case pred.EqJoin:
			needCol(pred.LCol, true)
			needCol(pred.RCol, true)
		case idx >= 0 && asg.pushNode[idx] && pred.Tables[0] == ti:
			sf *= d.nodes[idx].sf
			scan(pred.Expr, false)
		default:
			scan(pred.Expr, true)
		}
	}
	for _, g := range p.q.GroupBy {
		needCol(g, true)
	}

	var pr cutPrice
	pr.roots = sortedKeys(roots)
	pr.below = sortedKeys(below)

	// Below the cut: every call subtree the DAP runs, once per scanned
	// row, and the pushed predicates' own comparisons.
	run := d.callClosure(pr.below)
	if asg.pushAgg {
		run = d.calls[ti] // feasibility put the whole table below
	}
	for _, idx := range run {
		n := d.nodes[idx]
		pr.CPUMS += model.nodeMS(n, rows, true)
		for _, col := range n.expr.Columns() {
			read[col] = true
		}
	}
	for _, idx := range d.preds[ti] {
		if asg.pushNode[idx] {
			pr.CPUMS += model.nodeMS(d.nodes[idx], rows, true)
		}
	}
	if len(read) == 0 {
		read[p.q.Tables[ti].Offset] = true // a fragment extracts at least one column to carry cardinality
	}
	pr.read = sortedKeys(read)
	for _, col := range pr.read {
		pr.CVDA += rows * int64(p.cols[col].avgBytes)
	}
	pr.CVDTSelOnly = int64(sf * float64(rows) * float64(p.tableStats(ti).AvgTupleBytes()))

	if asg.pushAgg {
		// The fragment collapses the table to its group rows: volume is
		// G×(key+result); the aggregation itself runs in the MVM.
		a := d.agg
		pr.raw = append([]int(nil), p.q.GroupBy...)
		sort.Ints(pr.raw)
		pr.roots = nil
		pr.CPUMS += model.CompMS(rows*int64(a.argBytes), a.costPB, true)
		pr.CVDT = a.groups * int64(a.keyBytes+a.resBytes)
		pr.NetMS = model.NetworkMS(pr.CVDT)
		return pr
	}

	// Shipped volume: rows surviving the pushed predicates times the
	// row the QPC still needs.
	pr.raw = sortedKeys(raw)
	var rowBytes int64
	for _, col := range pr.raw {
		rowBytes += int64(p.cols[col].avgBytes)
	}
	for _, idx := range pr.roots {
		rowBytes += int64(d.nodes[idx].resBytes)
	}
	shippedRows := sf * float64(rows)
	pr.CVDT = int64(shippedRows * float64(rowBytes))
	pr.NetMS = model.NetworkMS(pr.CVDT)

	// Above the cut: the table's remaining calls and predicates, and a
	// QPC-side aggregation, run natively over the shipped rows.
	for _, idx := range d.tableNodes(ti) {
		if !asg.pushNode[idx] {
			pr.CPUMS += model.nodeMS(d.nodes[idx], int64(shippedRows), false)
		}
	}
	if a := d.agg; a != nil && a.table == ti {
		pr.CPUMS += model.CompMS(int64(shippedRows)*int64(a.argBytes), a.costPB, false)
	}
	return pr
}

// finishCut records the chosen assignment with its price and renders
// its split point.
func finishCut(d *queryDAG, ti int, asg cutAssignment, pr cutPrice, alts int) tableCut {
	return tableCut{asg: asg, price: pr, Alts: alts, Point: cutPoint(d, ti, &asg, pr.below)}
}

// cutPoint renders the split point: the operators below the cut in
// deterministic order, or scan-only when the DAP only extracts
// attributes. Byte-deterministic (names only, no floats) so EXPLAIN
// goldens can pin it.
func cutPoint(d *queryDAG, ti int, asg *cutAssignment, calls []int) string {
	var below []string
	for _, idx := range d.preds[ti] {
		if asg.pushNode[idx] {
			below = append(below, "pred "+nodeLabel(d.nodes[idx]))
		}
	}
	for _, idx := range calls {
		below = append(below, "call "+d.nodes[idx].expr.Func)
	}
	if asg.pushAgg {
		below = append(below, "agg "+d.agg.funcs)
	}
	if len(below) == 0 {
		return "scan-only"
	}
	return "below=[" + strings.Join(below, ", ") + "]"
}

func nodeLabel(n *cutNode) string {
	if c := firstCall(n.expr); c != nil {
		return c.Func
	}
	if n.expr.Kind == ExprBinop {
		return "cmp " + n.expr.Op
	}
	return "expr"
}
