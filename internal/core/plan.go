package core

import (
	"encoding/xml"
	"fmt"
	"strings"

	"mocha/internal/types"
	"mocha/internal/vm"
)

// CodeRef names one class a site must hold before executing its plan
// piece; it drives the code-deployment phase of section 3.6. Only the
// name and the content digest travel: the DAP pins the class by them.
type CodeRef struct {
	Name     string `xml:"name,attr"`
	Checksum string `xml:"checksum,attr"`
	// Version is the release tag; Caps is the verifier's capability
	// manifest, the host intrinsics the class may invoke (empty means
	// pure stack code); Cost is the verifier's static cost summary. All
	// three are copied from the release so the optimizer and the rollout
	// judge can price the class without holding its blob.
	Version string      `xml:"-"`
	Caps    []string    `xml:"-"`
	Cost    vm.CostInfo `xml:"-"`
}

// Output is one computed output column.
type Output struct {
	Name string `xml:"name,attr"`
	Expr *PExpr `xml:"expr"`
}

// AggSpec is one aggregate output: a user-defined aggregate operator
// applied to argument expressions over the input schema.
type AggSpec struct {
	Name string     `xml:"name,attr"`
	Func string     `xml:"func,attr"`
	Ret  types.Kind `xml:"ret,attr"`
	Args []*PExpr   `xml:"expr"`
}

// UnmarshalXML decodes an <agg>, refusing one without a return kind.
func (a *AggSpec) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	type plain AggSpec
	if err := d.DecodeElement((*plain)(a), &start); err != nil {
		return err
	}
	return types.RequireAttr(start, "ret")
}

// Chain is the row chain the paper's section 3.8 operators run as, on
// either side of the cut: predicates in order, then a grouped
// aggregation, then a projection. A fragment's body, a table's QPC stage
// and the QPC's work above the joins are each one chain (DESIGN §10). A
// chain that aggregates and projects nothing emits its group rows as
// they are, as a fragment's pushed aggregation does.
type Chain struct {
	// Predicates filter rows, ordered by the optimizer's rank metric.
	Predicates []*PExpr `xml:"predicates>expr"`
	// GroupBy and Aggregates, when present, make the chain emit one row
	// per group; Projections then read the group rows.
	GroupBy     []int     `xml:"group-by>col"`
	Aggregates  []AggSpec `xml:"aggregates>agg"`
	Projections []Output  `xml:"projections>output"`
}

// Calls calls f with the name of every operator the chain binds, in the
// order lowering compiles them (predicates, aggregates, projections):
// each call in an expression, and each aggregate's function before its
// arguments' calls.
func (c *Chain) Calls(f func(name string)) {
	CallsIn(f, c.Predicates...)
	for _, a := range c.Aggregates {
		f(a.Func)
		CallsIn(f, a.Args...)
	}
	for _, o := range c.Projections {
		CallsIn(f, o.Expr)
	}
}

// CallsIn calls f with the name of every operator the expressions call.
func CallsIn(f func(name string), exprs ...*PExpr) {
	for _, e := range exprs {
		e.Walk(func(x *PExpr) {
			if x.Kind == ExprCall {
				f(x.Func)
			}
		})
	}
}

// Fragment is the piece of a query plan executed by one DAP (a "DAP
// node" in the paper's plan trees). Execution order at the DAP: extract
// the listed source columns, apply the semi-join filter if any, then run
// the chain: predicates in order, then either group-and-aggregate or
// project.
//
// The tagged fields are the <fragment> document a START carries: what
// the DAP runs, and nothing else. The fields tagged "-" are the QPC's
// own — where the fragment runs, what it emits, the cut that shaped it
// and the partitions it scatters over — and never travel.
type Fragment struct {
	XMLName xml.Name `xml:"fragment"`
	Site    string   `xml:"-"`
	Table   string   `xml:"table,attr"`
	// SemiJoinCol, when >= 0, filters tuples to those whose value in the
	// extracted column appears in the key set delivered before
	// activation (the 2-way semi-join strategy of section 5.4).
	SemiJoinCol int `xml:"semijoin-col,attr"`
	// Limit, when positive, stops the fragment after emitting that many
	// tuples (a pushed-down LIMIT).
	Limit int `xml:"limit,attr"`
	// CutPoint is the human-readable split point the DAG-cut search
	// chose for this fragment's table ("scan-only" when every operator
	// stayed above the cut); CutAlts is how many feasible cuts the
	// ranker priced (1 under forced strategies). EXPLAIN shows both.
	CutPoint string `xml:"-"`
	CutAlts  int    `xml:"-"`
	// Parts, when non-empty, scatter the fragment across a partitioned
	// table: one target per surviving (post-pruning) partition, in
	// partition order. Site/Table then only name the primary of the
	// first target; execution clones the fragment per target.
	Parts []PartTarget `xml:"-"`
	// PartsTotal is the partition count before pruning (0 for an
	// unpartitioned fragment); PartKey names the partition key column.
	PartsTotal int    `xml:"-"`
	PartKey    string `xml:"-"`
	// Cols are the source-table column indexes extracted from the data
	// server. All fragment expressions index this extracted schema.
	Cols []int `xml:"extract>col"`
	// InSchema is the extracted schema (parallel to Cols).
	InSchema types.Schema `xml:"in-schema"`
	// Chain is what the DAP runs over the extracted tuples.
	Chain
	// Code lists the classes the DAP must load (code shipping manifest).
	Code []CodeRef `xml:"code>class"`
	// OutSchema is the schema of emitted tuples, which the QPC reads
	// the fragment's stream under.
	OutSchema types.Schema `xml:"-"`
	// Stage is the QPC's own work on the stream before any join, in a
	// multi-table plan; nil when the stream joins as it arrives. It is
	// the single-table predicates the table's cut left above, then a
	// projection that computes the data-reducing single-table calls left
	// above as virtual columns and keeps only the columns something above
	// the stage still reads, all over OutSchema. A filter never widens a
	// row and a staged call is narrower than what it reads, so the joins
	// hold the narrowest rows the plan allows. StageSchema is its output.
	Stage       *Chain       `xml:"-"`
	StageSchema types.Schema `xml:"-"`
}

// QPCSchema is the schema the QPC's joins read the fragment's stream
// under: its stage's output, or what the DAP emits when it has none.
func (f *Fragment) QPCSchema() types.Schema {
	if f.Stage != nil {
		return f.StageSchema
	}
	return f.OutSchema
}

// PartTarget is one partition the scatter phase must read: its physical
// table, the primary replica site the plan prefers, and the full
// replica set failover may fall back to (primary first).
type PartTarget struct {
	ID       int
	Table    string
	Site     string
	Replicas []string
}

// JoinStep joins the accumulated left input with fragment RightFrag's
// output on an equality of small-object columns.
type JoinStep struct {
	RightFrag int
	// LeftCol indexes the accumulated (already joined) schema; RightCol
	// indexes the right fragment's QPCSchema.
	LeftCol  int
	RightCol int
}

// OrderSpec is one ORDER BY key over the result schema.
type OrderSpec struct {
	Col  int
	Desc bool
}

// Plan is a complete physical plan: per-site fragments plus the work the
// QPC performs on their combined streams. Only its fragments travel,
// each in the START that runs it; the rest stays at the QPC.
type Plan struct {
	SQL       string
	Fragments []*Fragment
	// Joins chain fragments left-deep: start with Fragments[0]'s stream,
	// then join each step's right fragment.
	Joins []JoinStep
	// CombinedSchema is the schema after all joins (the fragments'
	// QPCSchemas concatenated in join order).
	CombinedSchema types.Schema
	// Chain is the QPC's work over the combined schema; ordering and
	// limit follow it.
	Chain
	OrderBy []OrderSpec
	Limit   int // -1 none
	// ResultSchema is the schema delivered to the client.
	ResultSchema types.Schema

	// Estimates recorded by the optimizer for explain output and the
	// metric-accuracy experiments.
	Est PlanEstimates
}

// PlanEstimates carries the optimizer's predictions.
type PlanEstimates struct {
	// CVDA is the estimated total data volume accessed at the sources.
	CVDA int64
	// CVDT is the VRF-based estimate of the volume transmitted.
	CVDT int64
	// CVDTSelOnly estimates transmitted volume using selectivity and
	// cardinality alone (the baseline metric the paper argues against).
	CVDTSelOnly int64
	// Cost is the total estimated cost (comp + network, milliseconds).
	Cost float64
}

// CVRF returns the estimated cumulative volume reduction factor.
func (e PlanEstimates) CVRF() float64 {
	if e.CVDA == 0 {
		return 0
	}
	return float64(e.CVDT) / float64(e.CVDA)
}

// ---- XML documents ----

// UnsupportedPlanFeatureError reports a fragment document that declares
// `requires` tokens. This build implements none: a START is input from
// outside the program, and a fragment from a newer planner that names a
// feature must be refused, not silently misread.
type UnsupportedPlanFeatureError struct {
	Features []string
}

func (e *UnsupportedPlanFeatureError) Error() string {
	return fmt.Sprintf("core: plan requires unsupported features %v", e.Features)
}

// UnmarshalXML implements xml.Unmarshaler, refusing a fragment whose
// requires attribute names any feature.
func (f *Fragment) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	type plain Fragment
	if err := d.DecodeElement((*plain)(f), &start); err != nil {
		return err
	}
	for _, a := range start.Attr {
		if toks := strings.Fields(a.Value); a.Name.Local == "requires" && len(toks) > 0 {
			return &UnsupportedPlanFeatureError{Features: toks}
		}
	}
	return nil
}

// Start is the START request, the one document that runs a fragment at
// its DAP: the fragment — whose code refs name every class it needs by
// content digest, so it is its own code check — under the attributes of
// this activation. The DAP answers with a wire.StartAck.
type Start struct {
	XMLName xml.Name `xml:"start"`
	// Stream names the result stream, the same at every placement of it.
	Stream string `xml:"stream,attr"`
	// Trace is the query's trace ID; when set the DAP records spans
	// under it and returns them with the stream's stats.
	Trace string `xml:"trace,attr,omitempty"`
	// Part and Of mark one shard of a scattered fragment: its partition
	// ID and the pre-pruning partition count (Of > 0). The DAP echoes
	// both in its stats so the QPC can verify each gathered stream came
	// from the shard it started.
	Part int `xml:"part,attr,omitempty"`
	Of   int `xml:"of,attr,omitempty"`
	// Skip is how many of the stream's tuples the QPC already holds: on a
	// START that re-places a broken stream, the delivered prefix (absent
	// otherwise). Whichever DAP receives it runs the fragment from its
	// beginning and sends only what follows those tuples; fragment output
	// is deterministic and identical across replicas.
	Skip     int64     `xml:"skip,attr,omitempty"`
	Fragment *Fragment `xml:"fragment"`
}
