package core

import (
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mocha/internal/types"
	"mocha/internal/vm"
)

// TestPlanDocumentsGolden pins the bytes of the one plan document — the
// <fragment> each DAP receives in its START — for every ladder query of
// decisions.golden under all three strategies and both layouts. Every
// document must also decode to a value that encodes back to the same
// bytes.
//
// Regenerate with
//
//	go test ./internal/core -run TestPlanDocumentsGolden -update
func TestPlanDocumentsGolden(t *testing.T) {
	var b strings.Builder
	for _, lf := range ladderFragments(t) {
		label := lf.label
		fd, err := xml.MarshalIndent(lf.frag, "", "  ")
		if err != nil {
			t.Fatalf("%s: encode: %v", label, err)
		}
		var fback Fragment
		if err := xml.Unmarshal(fd, &fback); err != nil {
			t.Fatalf("%s: decode: %v", label, err)
		}
		if again, err := xml.MarshalIndent(&fback, "", "  "); err != nil || string(again) != string(fd) {
			t.Errorf("%s does not re-encode to the same bytes (err %v)", label, err)
		}
		fmt.Fprintf(&b, "==== %s\n%s\n", label, fd)
	}
	path := filepath.Join("testdata", "documents.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("plan documents moved:\n%s", lineDiff(string(want), got))
	}
}

// ladderFragment is one fragment of a ladder plan, under the label the
// golden gives it.
type ladderFragment struct {
	label string
	frag  *Fragment
}

// ladderFragments plans every ladder query of decisions.golden under all
// three strategies and both layouts and returns each plan's fragments,
// then the synthetic fragment.
func ladderFragments(t *testing.T) []ladderFragment {
	var out []ladderFragment
	for _, layout := range decisionCatalogs(t) {
		for _, q := range decisionQueries {
			for _, s := range []Strategy{StrategyAuto, StrategyCodeShip, StrategyDataShip} {
				plan := planQuery(t, layout.cat, s, q.sql)
				for i, f := range plan.Fragments {
					out = append(out, ladderFragment{fmt.Sprintf("%s %s [%s] fragment %d", layout.label, q.label, s, i), f})
				}
			}
		}
	}
	return append(out, ladderFragment{"synthetic fragment", syntheticFragment()})
}

// TestStartCarriesOnlyWhatDAPRuns: the START of every ladder fragment
// carries none of the QPC's own annotations — site, output schema, cut,
// partitions, the release tag, capabilities and static cost of its
// classes, or a feature gate — and, decoded as the DAP decodes it (the
// whole-document decode FuzzStartSplit holds the DAP's split decode
// to), encodes back to the same bytes.
func TestStartCarriesOnlyWhatDAPRuns(t *testing.T) {
	for _, lf := range ladderFragments(t) {
		doc, err := xml.Marshal(&Start{Stream: "q1/0", Trace: "q1", Fragment: lf.frag})
		if err != nil {
			t.Fatalf("%s: encode: %v", lf.label, err)
		}
		for _, qpcOnly := range []string{"<cut", "<parts", "requires=", "site=", "<out-schema", "version=", "caps=", "cost="} {
			if strings.Contains(string(doc), qpcOnly) {
				t.Errorf("%s: START carries %q:\n%s", lf.label, qpcOnly, doc)
			}
		}
		var back Start
		if err := xml.Unmarshal(doc, &back); err != nil {
			t.Fatalf("%s: decode: %v", lf.label, err)
		}
		if again, err := xml.Marshal(&back); err != nil || string(again) != string(doc) {
			t.Errorf("%s: START does not re-encode to the same bytes (err %v):\n%s\n%s", lf.label, err, doc, again)
		}
	}
}

func syntheticFragment() *Fragment {
	consts := []types.Object{
		types.Null{}, types.Bool(true), types.Int(-7), types.Double(2.5),
		types.String_(`a<b & "c"`), types.Bytes{0, 1, 2},
		types.Point{X: 1, Y: 2}, types.Rectangle{XMin: 0, YMin: 0, XMax: 64, YMax: 12},
	}
	var preds []*PExpr
	for _, c := range consts {
		preds = append(preds, &PExpr{Kind: ExprBinop, Op: "=", Ret: types.KindBool,
			Args: []*PExpr{NewCol(0, c.Kind()), NewConst(c)}})
	}
	preds = append(preds, &PExpr{Kind: ExprUnary, Op: "NOT", Ret: types.KindBool,
		Args: []*PExpr{NewCol(1, types.KindBool)}})
	in := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt}, types.Column{Name: "ok", Kind: types.KindBool})
	return &Fragment{
		Site: "site1", Table: "T__p0", Cols: []int{0, 3}, InSchema: in,
		SemiJoinCol: 1,
		Chain: Chain{Predicates: preds, GroupBy: []int{0},
			Aggregates: []AggSpec{{Name: "n", Func: "Count", Ret: types.KindInt}}},
		Code: []CodeRef{{Name: "Count", Version: "1.0", Checksum: "abc", Caps: []string{"alloc"},
			Cost: vm.CostInfo{Bounded: true, BudgetInstrs: 9}}},
		OutSchema: types.NewSchema(types.Column{Name: "k", Kind: types.KindInt}, types.Column{Name: "n", Kind: types.KindInt}),
		Limit:     5,
		Parts: []PartTarget{
			{ID: 0, Table: "T__p0", Site: "site1", Replicas: []string{"site1", "site2"}},
			{ID: 2, Table: "T__p2", Site: "site3"},
		},
		PartsTotal: 3, PartKey: "k",
		CutPoint: "below=[agg Count]", CutAlts: 2,
	}
}

// TestDocumentTypesTagEveryField fails when a type that is its own XML
// codec gains an exported field with no xml tag: encoding/xml would
// then emit it under its Go name, changing the document, or a field
// meant to stay local would travel. Every field must say which —
// `xml:"name…"` or `xml:"-"`. An embedded struct's fields are checked
// as the outer type's own, since encoding/xml inlines them.
func TestDocumentTypesTagEveryField(t *testing.T) {
	var check func(typ reflect.Type)
	check = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous && f.Type.Kind() == reflect.Struct {
				check(f.Type) // encoding/xml inlines an embedded struct's fields
				continue
			}
			if _, ok := f.Tag.Lookup("xml"); f.IsExported() && !ok {
				t.Errorf("%s.%s has no xml tag", typ, f.Name)
			}
		}
	}
	for _, v := range []any{
		Fragment{}, Start{}, AggSpec{}, Output{}, PExpr{}, CodeRef{}, types.Column{}, types.Schema{},
	} {
		check(reflect.TypeOf(v))
	}
}

// TestPlanDocumentsRefuseBadKinds: a schema column, an aggregate or an
// expression naming a kind the type system does not have — or naming
// none — fails the decode of the fragment.
func TestPlanDocumentsRefuseBadKinds(t *testing.T) {
	frag, err := xml.MarshalIndent(syntheticFragment(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := xml.Unmarshal(frag, new(Fragment)); err != nil {
		t.Fatalf("unmodified document refused: %v", err)
	}
	for _, tc := range []struct{ name, old, new string }{
		{"in-schema column kind", `<column name="ok" kind="BOOL">`, `<column name="ok" kind="TRILEAN">`},
		{"in-schema column without kind", `<column name="k" kind="INT">`, `<column name="k">`},
		{"aggregate kind", `func="Count" ret="INT"`, `func="Count" ret="COUNT"`},
		{"aggregate without kind", `func="Count" ret="INT"`, `func="Count"`},
		{"expression kind", `op="NOT" ret="BOOL"`, `op="NOT" ret="MAYBE"`},
		{"constant kind", `const-kind="POINT"`, `const-kind="DOT"`},
	} {
		bad := strings.Replace(string(frag), tc.old, tc.new, 1)
		if bad == string(frag) {
			t.Fatalf("%s: %q not found in the document", tc.name, tc.old)
		}
		if err := xml.Unmarshal([]byte(bad), new(Fragment)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
