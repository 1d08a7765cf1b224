package core

import (
	"encoding/xml"
	"fmt"
	"strings"

	"mocha/internal/types"
)

// CodeRef names one class a site must hold before executing its plan
// piece; it drives the code-deployment phase of section 3.6.
type CodeRef struct {
	Name     string `xml:"name,attr"`
	Version  string `xml:"version,attr"`
	Checksum string `xml:"checksum,attr"`
	// Caps is the verifier's capability manifest: the host intrinsics the
	// class may invoke, comma-joined. Empty means pure stack code.
	Caps string `xml:"caps,attr,omitempty"`
	// Cost is the verifier's static cost-and-resource summary in its
	// canonical vm.CostInfo encoding, stamped from the release manifest
	// so every plan consumer (optimizer, governor, rollout judge) can
	// price the class without holding the blob. Empty on legacy refs.
	Cost string `xml:"cost,attr,omitempty"`
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

// Fragment is the piece of a query plan executed by one DAP (a "DAP
// node" in the paper's plan trees). Execution order at the DAP: extract
// the listed source columns, apply the semi-join filter if any, apply
// predicates in order, then either group-and-aggregate or project.
//
// Fields are declared in the order the <fragment> document carries
// them; the tags are that document, except for the cut and scatter
// fields, which MarshalXML nests under <cut> and <parts>.
type Fragment struct {
	Site  string `xml:"site,attr"`
	Table string `xml:"table,attr"`
	// SemiJoinCol, when >= 0, filters tuples to those whose value in the
	// extracted column appears in the key set delivered before
	// activation (the 2-way semi-join strategy of section 5.4).
	SemiJoinCol int `xml:"semijoin-col,attr"`
	// Limit, when positive, stops the fragment after emitting that many
	// tuples (a pushed-down LIMIT).
	Limit int `xml:"limit,attr"`
	// Degraded marks a fragment planned under data shipping because the
	// optimizer's health oracle reported its site degraded (breaker
	// open), overriding the VRF-based placement.
	Degraded bool `xml:"degraded,attr,omitempty"`
	// CutPoint is the human-readable split point the DAG-cut search
	// chose for this fragment's table ("scan-only" when every operator
	// stayed above the cut); CutAlts is how many feasible cuts the
	// ranker priced (1 under forced strategies and for degraded sites).
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
	// Predicates filter extracted tuples, ordered by the optimizer's
	// rank metric.
	Predicates []*PExpr `xml:"predicates>expr"`
	// GroupBy and Aggregates, when present, make the fragment emit one
	// row per group; otherwise Projections produce the output.
	GroupBy     []int     `xml:"group-by>col"`
	Aggregates  []AggSpec `xml:"aggregates>agg"`
	Projections []Output  `xml:"projections>output"`
	// Code lists the classes the DAP must load (code shipping manifest).
	Code []CodeRef `xml:"code>class"`
	// OutSchema is the schema of emitted tuples.
	OutSchema types.Schema `xml:"out-schema"`
}

// PartTarget is one partition the scatter phase must read: its physical
// table, the primary replica site the plan prefers, and the full
// replica set failover may fall back to (primary first).
type PartTarget struct {
	ID       int      `xml:"id,attr"`
	Table    string   `xml:"table,attr"`
	Site     string   `xml:"site,attr"`
	Replicas SiteRefs `xml:"replica"`
}

// SiteRefs is a list of site names. It is a []string wherever Go code
// handles it; in a plan document each name travels as an element of its
// own carrying a name attribute, which a tag on []string cannot say.
type SiteRefs []string

type siteRef struct {
	Name string `xml:"name,attr"`
}

// MarshalXML implements xml.Marshaler: one element per site.
func (l SiteRefs) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	for _, site := range l {
		if err := e.EncodeElement(siteRef{site}, start); err != nil {
			return err
		}
	}
	return nil
}

// UnmarshalXML implements xml.Unmarshaler; encoding/xml calls it once
// per element, so it appends.
func (l *SiteRefs) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	var ref siteRef
	if err := d.DecodeElement(&ref, &start); err != nil {
		return err
	}
	*l = append(*l, ref.Name)
	return nil
}

// JoinStep joins the accumulated left input with fragment RightFrag's
// output on an equality of small-object columns.
type JoinStep struct {
	RightFrag int `xml:"right-frag,attr"`
	// LeftCol indexes the accumulated (already joined) schema; RightCol
	// indexes the right fragment's OutSchema.
	LeftCol  int `xml:"left-col,attr"`
	RightCol int `xml:"right-col,attr"`
}

// OrderSpec is one ORDER BY key over the result schema.
type OrderSpec struct {
	Col  int  `xml:"col,attr"`
	Desc bool `xml:"desc,attr"`
}

// Plan is a complete physical plan: per-site fragments plus the work the
// QPC performs on their combined streams. Plans are encoded as XML
// documents for distribution, as in the paper; the tags are the <plan>
// document.
type Plan struct {
	SQL       string      `xml:"sql"`
	Fragments []*Fragment `xml:"fragment"`
	// Joins chain fragments left-deep: start with Fragments[0]'s stream,
	// then join each step's right fragment.
	Joins []JoinStep `xml:"join"`
	// CombinedSchema is the schema after all joins (concatenated
	// fragment outputs in join order).
	CombinedSchema types.Schema `xml:"combined-schema"`
	// QPC-side operators over the combined schema:
	Predicates  []*PExpr    `xml:"predicates>expr"`
	GroupBy     []int       `xml:"group-by>col"`
	Aggregates  []AggSpec   `xml:"aggregates>agg"`
	Projections []Output    `xml:"projections>output"`
	OrderBy     []OrderSpec `xml:"order-by>key"`
	Limit       int         `xml:"limit"` // -1 none
	// ResultSchema is the schema delivered to the client.
	ResultSchema types.Schema `xml:"result-schema"`

	// Estimates recorded by the optimizer for explain output and the
	// metric-accuracy experiments; they do not travel.
	Est PlanEstimates `xml:"-"`
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

// featureDagCut marks a plan document whose fragments carry DAG-cut
// annotations; decoders that do not understand cuts must refuse it.
const featureDagCut = "dag-cut"

// supportedPlanFeatures lists every `requires` token this build's
// decoder understands. Unknown tokens make decoding fail with
// *UnsupportedPlanFeatureError rather than silently misreading the plan.
var supportedPlanFeatures = map[string]bool{
	featureDagCut: true,
}

// UnsupportedPlanFeatureError reports a plan document that declares
// `requires` tokens this decoder does not implement. It is a typed
// error so an old QPC/DAP can distinguish "plan from the future" from
// a malformed document.
type UnsupportedPlanFeatureError struct {
	Features []string
}

func (e *UnsupportedPlanFeatureError) Error() string {
	return fmt.Sprintf("core: plan requires unsupported features %v", e.Features)
}

// checkRequires validates a space-separated `requires` attribute
// against supportedPlanFeatures.
func checkRequires(requires string) error {
	var unknown []string
	for _, tok := range strings.Fields(requires) {
		if !supportedPlanFeatures[tok] {
			unknown = append(unknown, tok)
		}
	}
	if len(unknown) > 0 {
		return &UnsupportedPlanFeatureError{Features: unknown}
	}
	return nil
}

// requires lists the plan features (space-separated tokens) a consumer
// must understand to execute the fragment faithfully. A decoder that
// does not know a token must refuse the document, not silently drop
// what it cannot parse.
func (f *Fragment) requires() string {
	if f.CutPoint != "" {
		return featureDagCut
	}
	return ""
}

// fragmentFields and planFields are the tagged fields of their types
// without the methods, so a marshaller can hand its own struct to
// encoding/xml without recursing into itself.
type (
	fragmentFields Fragment
	planFields     Plan
)

// fragmentDoc is the <fragment> element: Fragment's tagged fields, the
// computed requires attribute after its attributes, and ahead of its
// elements the two wrappers whose shape the struct does not have.
type fragmentDoc struct {
	XMLName xml.Name  `xml:"fragment"`
	Cut     *cutDoc   `xml:"cut"`
	Parts   *partsDoc `xml:"parts"`
	*fragmentFields
	Requires string `xml:"requires,attr,omitempty"`
}

// cutDoc carries the DAG-cut annotation: the chosen split point and how
// many feasible cuts the ranker priced before choosing it.
type cutDoc struct {
	Point string `xml:"point,attr"`
	Alts  int    `xml:"alts,attr"`
}

// partsDoc carries a fragment's scatter targets: total pre-pruning
// partition count, key column and one <part> per surviving partition.
type partsDoc struct {
	Total int          `xml:"total,attr"`
	Key   string       `xml:"key,attr,omitempty"`
	Parts []PartTarget `xml:"part"`
}

// MarshalXML implements xml.Marshaler.
func (f *Fragment) MarshalXML(e *xml.Encoder, _ xml.StartElement) error {
	doc := fragmentDoc{fragmentFields: (*fragmentFields)(f), Requires: f.requires()}
	if f.CutPoint != "" {
		doc.Cut = &cutDoc{Point: f.CutPoint, Alts: f.CutAlts}
	}
	if f.PartsTotal > 0 {
		doc.Parts = &partsDoc{Total: f.PartsTotal, Key: f.PartKey, Parts: f.Parts}
	}
	return e.Encode(doc)
}

// UnmarshalXML implements xml.Unmarshaler, refusing a fragment that
// requires a feature this build does not implement.
func (f *Fragment) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	doc := fragmentDoc{fragmentFields: (*fragmentFields)(f)}
	if err := d.DecodeElement(&doc, &start); err != nil {
		return err
	}
	if doc.Cut != nil {
		f.CutPoint, f.CutAlts = doc.Cut.Point, doc.Cut.Alts
	}
	if doc.Parts != nil {
		f.PartsTotal, f.PartKey, f.Parts = doc.Parts.Total, doc.Parts.Key, doc.Parts.Parts
	}
	return checkRequires(doc.Requires)
}

// planDoc is the <plan> element: Plan's tagged fields under the
// computed requires attribute.
type planDoc struct {
	XMLName  xml.Name `xml:"plan"`
	Requires string   `xml:"requires,attr,omitempty"`
	*planFields
}

// MarshalXML implements xml.Marshaler. The plan requires what its
// fragments require.
func (p *Plan) MarshalXML(e *xml.Encoder, _ xml.StartElement) error {
	doc := planDoc{planFields: (*planFields)(p)}
	for _, f := range p.Fragments {
		if r := f.requires(); r != "" {
			doc.Requires = r
		}
	}
	return e.Encode(doc)
}

// UnmarshalXML implements xml.Unmarshaler, refusing a plan that
// requires a feature this build does not implement.
func (p *Plan) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	doc := planDoc{planFields: (*planFields)(p)}
	if err := d.DecodeElement(&doc, &start); err != nil {
		return err
	}
	return checkRequires(doc.Requires)
}

// EncodeFragment renders a fragment as an XML plan document for
// transmission to its DAP.
func EncodeFragment(f *Fragment) ([]byte, error) {
	return xml.MarshalIndent(f, "", "  ")
}

// DecodeFragment parses a fragment document.
func DecodeFragment(data []byte) (*Fragment, error) {
	f := new(Fragment)
	if err := xml.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("core: parse fragment: %w", err)
	}
	return f, nil
}

// Start is the START request, the one document that runs a fragment at
// its DAP: the fragment — whose code refs name every class it needs by
// content digest, so it is its own code check — under the attributes of
// this activation. The DAP answers with a wire.StartAck.
type Start struct {
	XMLName xml.Name `xml:"start"`
	// Stream names the result stream. The DAP retains the stream's replay
	// window under it, and a START naming an ID it still retains either
	// continues that stream (see After) or replaces its execution.
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
	// After is the resume point of a START that re-places a broken stream:
	// the sequence number of the last in-order frame the QPC holds (absent
	// on a first attempt, or when it holds none). A DAP that retains the
	// stream parked with a replay window covering After continues it from
	// the next frame; any other DAP runs the fragment from its beginning.
	After    uint64    `xml:"after,attr,omitempty"`
	Fragment *Fragment `xml:"fragment"`
}

// EncodePlan renders the whole plan as XML (used for explain output and
// plan archival).
func EncodePlan(p *Plan) ([]byte, error) {
	return xml.MarshalIndent(p, "", "  ")
}

// DecodePlan parses a plan document.
func DecodePlan(data []byte) (*Plan, error) {
	p := new(Plan)
	if err := xml.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("core: parse plan: %w", err)
	}
	return p, nil
}
