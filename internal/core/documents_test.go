package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mocha/internal/types"
)

// TestPlanDocumentsGolden pins the bytes of the two plan documents —
// the archived <plan> and the <fragment> each DAP receives in
// DEPLOY_PLAN — for every ladder query of decisions.golden under all
// three strategies and both layouts. The file was generated when the
// codec still copied every plan type into a mirror struct; a codec
// change that moves no wire byte leaves it identical. Every document must also decode to a
// value that encodes back to the same bytes.
//
// Regenerate with
//
//	go test ./internal/core -run TestPlanDocumentsGolden -update
func TestPlanDocumentsGolden(t *testing.T) {
	var b strings.Builder
	for _, layout := range decisionCatalogs(t) {
		for _, q := range decisionQueries {
			for _, s := range []Strategy{StrategyAuto, StrategyCodeShip, StrategyDataShip} {
				plan := planQuery(t, layout.cat, s, q.sql)
				label := fmt.Sprintf("%s %s [%s]", layout.label, q.label, s)
				doc, err := EncodePlan(plan)
				if err != nil {
					t.Fatalf("%s: encode plan: %v", label, err)
				}
				back, err := DecodePlan(doc)
				if err != nil {
					t.Fatalf("%s: decode plan: %v", label, err)
				}
				if again, err := EncodePlan(back); err != nil || string(again) != string(doc) {
					t.Errorf("%s: plan does not re-encode to the same bytes (err %v)", label, err)
				}
				fmt.Fprintf(&b, "==== %s plan\n%s\n", label, doc)
				for i, f := range plan.Fragments {
					fd, err := EncodeFragment(f)
					if err != nil {
						t.Fatalf("%s: encode fragment %d: %v", label, i, err)
					}
					fback, err := DecodeFragment(fd)
					if err != nil {
						t.Fatalf("%s: decode fragment %d: %v", label, i, err)
					}
					if again, err := EncodeFragment(fback); err != nil || string(again) != string(fd) {
						t.Errorf("%s: fragment %d does not re-encode to the same bytes (err %v)", label, i, err)
					}
					fmt.Fprintf(&b, "==== %s fragment %d\n%s\n", label, i, fd)
				}
			}
		}
	}
	// What no ladder query produces: a fragment with a pushed
	// LIMIT and multi-replica scatter targets, a constant of every small
	// kind (with text XML must escape), a unary operator, an aggregate
	// with no arguments, and a plan with no cut (no requires attribute).
	fd, err := EncodeFragment(syntheticFragment())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "==== synthetic fragment\n%s\n", fd)
	pd, err := EncodePlan(&Plan{SQL: `SELECT "a" < 'b' & c`, Limit: -1, Fragments: []*Fragment{{Site: "s", Table: "T", SemiJoinCol: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "==== synthetic plan\n%s\n", pd)
	for _, doc := range [][]byte{fd, pd} {
		var again []byte
		if f, err := DecodeFragment(doc); err == nil {
			again, _ = EncodeFragment(f)
		} else if p, err := DecodePlan(doc); err == nil {
			again, _ = EncodePlan(p)
		}
		if string(again) != string(doc) {
			t.Errorf("synthetic document does not re-encode to the same bytes:\n%s", doc)
		}
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
		Predicates: preds, SemiJoinCol: 1, GroupBy: []int{0},
		Aggregates: []AggSpec{{Name: "n", Func: "Count", Ret: types.KindInt}},
		Code:       []CodeRef{{Name: "Count", Version: "1.0", Checksum: "abc", Caps: "alloc", Cost: "c=1"}},
		OutSchema:  types.NewSchema(types.Column{Name: "k", Kind: types.KindInt}, types.Column{Name: "n", Kind: types.KindInt}),
		Limit:      5,
		Parts: []PartTarget{
			{ID: 0, Table: "T__p0", Site: "site1", Replicas: []string{"site1", "site2"}},
			{ID: 2, Table: "T__p2", Site: "site3"},
		},
		PartsTotal: 3, PartKey: "k",
	}
}

// TestDocumentTypesTagEveryField fails when a type that is its own XML
// codec gains an exported field with no xml tag: encoding/xml would
// then emit it under its Go name, changing the document, or a field
// meant to stay local would travel. Every field must say which —
// `xml:"name…"` or `xml:"-"`.
func TestDocumentTypesTagEveryField(t *testing.T) {
	for _, v := range []any{
		Fragment{}, Plan{}, Start{}, AggSpec{}, Output{}, PartTarget{}, JoinStep{}, OrderSpec{},
		PExpr{}, CodeRef{}, types.Column{}, types.Schema{},
	} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if _, ok := f.Tag.Lookup("xml"); f.IsExported() && !ok {
				t.Errorf("%s.%s has no xml tag", typ, f.Name)
			}
		}
	}
}

// TestPlanDocumentsRefuseBadKinds: a schema column, an aggregate or an
// expression naming a kind the type system does not have — or naming
// none — fails the decode of the fragment and of the plan around it.
func TestPlanDocumentsRefuseBadKinds(t *testing.T) {
	frag, err := EncodeFragment(syntheticFragment())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := EncodePlan(&Plan{Fragments: []*Fragment{syntheticFragment()},
		ResultSchema: types.NewSchema(types.Column{Name: "r", Kind: types.KindGraph})})
	if err != nil {
		t.Fatal(err)
	}
	decodeFragment := func(b []byte) error { _, err := DecodeFragment(b); return err }
	decodePlan := func(b []byte) error { _, err := DecodePlan(b); return err }
	for _, tc := range []struct {
		name     string
		doc      []byte
		old, new string
		decode   func([]byte) error
	}{
		{"in-schema column kind", frag, `<column name="ok" kind="BOOL">`, `<column name="ok" kind="TRILEAN">`, decodeFragment},
		{"out-schema column without kind", frag, `<column name="n" kind="INT">`, `<column name="n">`, decodeFragment},
		{"aggregate kind", frag, `func="Count" ret="INT"`, `func="Count" ret="COUNT"`, decodeFragment},
		{"aggregate without kind", frag, `func="Count" ret="INT"`, `func="Count"`, decodeFragment},
		{"expression kind", frag, `op="NOT" ret="BOOL"`, `op="NOT" ret="MAYBE"`, decodeFragment},
		{"constant kind", frag, `const-kind="POINT"`, `const-kind="DOT"`, decodeFragment},
		{"result-schema column kind", plan, `kind="GRAPH"`, `kind="MESH"`, decodePlan},
		{"fragment inside a plan", plan, `<column name="ok" kind="BOOL">`, `<column name="ok" kind="TRILEAN">`, decodePlan},
	} {
		if err := tc.decode(tc.doc); err != nil {
			t.Fatalf("%s: unmodified document refused: %v", tc.name, err)
		}
		bad := strings.Replace(string(tc.doc), tc.old, tc.new, 1)
		if bad == string(tc.doc) {
			t.Fatalf("%s: %q not found in the document", tc.name, tc.old)
		}
		if err := tc.decode([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
