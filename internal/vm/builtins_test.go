package vm_test

import (
	"bytes"
	"math"
	"testing"

	"mocha/internal/ops"
	"mocha/internal/sequoia"
	"mocha/internal/storage"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// sequoiaColumn generates the Sequoia test tables and returns one column
// of one of them.
func sequoiaColumn(t *testing.T, store *storage.Store, table string, col int) []types.Object {
	t.Helper()
	tbl, ok := store.Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	it, err := tbl.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var out []types.Object
	for {
		tup, _, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			return out
		}
		out = append(out, tup[col])
	}
}

// sameObject compares a native result with a shipped one: doubles to a
// relative 1e-9 (the native code may sum in another order), everything
// else by its wire bytes.
func sameObject(a, b types.Object) bool {
	da, aok := a.(types.Double)
	db, bok := b.(types.Double)
	if aok && bok {
		x, y := float64(da), float64(db)
		return x == y || math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	return a.Kind() == b.Kind() && bytes.Equal(a.AppendTo(nil), b.AppendTo(nil))
}

// TestBuiltinsDifferential runs every operator of the built-in library
// three ways — its native Go code, its shipped bytecode on the reference
// interpreter, and the same bytecode compiled — over generated Sequoia
// rows and the edge rows the generator never makes. Reference and
// compiled must agree exactly (value, trap, globals, instruction count:
// vm.ParityFrom); native and shipped must agree on the result.
func TestBuiltinsDifferential(t *testing.T) {
	store, err := storage.OpenStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sequoia.TestScale()
	if err := sequoia.GenerateAll(store, cfg); err != nil {
		t.Fatal(err)
	}
	polygons := append(sequoiaColumn(t, store, "Polygons", 1),
		types.NewPolygon(nil), types.NewPolygon([]types.Point{{X: 1, Y: 2}}), types.NewPolygon([]types.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}))
	graphs := append(sequoiaColumn(t, store, "Graphs", 1),
		types.NewGraph(nil, nil), types.NewGraph([]types.Point{{X: 1, Y: 1}}, nil))
	rasters := append(sequoiaColumn(t, store, "Rasters", 3)[:6], types.NewRaster(0, 0, nil), types.NewRaster(1, 1, []byte{7}))
	rects := sequoiaColumn(t, store, "Rasters", 2)[:6]
	dim := float32(cfg.RasterDim)
	windows := []types.Object{
		types.Rectangle{XMax: dim, YMax: dim / 5},                                   // Q2's window
		types.Rectangle{XMin: 3, YMin: 2, XMax: 9, YMax: 11},                        // inside
		types.Rectangle{XMin: 2 * dim, YMin: 2 * dim, XMax: 3 * dim, YMax: 3 * dim}, // outside the raster
		types.Rectangle{XMin: -50, YMin: -50, XMax: -1, YMax: -1},                   // outside, negative
		types.Rectangle{XMin: 9, YMin: 9, XMax: 3, YMax: 3},                         // inverted
	}
	doubles := []types.Object{types.Double(101.5), types.Double(99.25), types.Double(-3), types.Double(0), types.Double(math.Inf(1))}
	byKind := map[types.Kind][]types.Object{
		types.KindPolygon: polygons, types.KindGraph: graphs, types.KindRaster: rasters,
		types.KindDouble: doubles, types.KindInt: {types.Int(2), types.Int(1), types.Int(0), types.Int(-4), types.Int(3)},
	}

	reg := ops.Builtins()
	for _, name := range reg.Names() {
		def, _ := reg.Lookup(name)
		// rows: the cross product for two-argument operators whose second
		// argument steers control flow, a zip otherwise.
		var rows [][]types.Object
		switch {
		case name == "Clip":
			for _, r := range rasters {
				for _, w := range windows {
					rows = append(rows, []types.Object{r, w})
				}
			}
		case name == "IncrRes":
			for _, r := range rasters {
				for _, k := range byKind[types.KindInt] {
					rows = append(rows, []types.Object{r, k})
				}
			}
		case name == "Overlaps":
			for _, a := range rects {
				for _, b := range append(rects[:3:3], windows...) {
					rows = append(rows, []types.Object{a, b})
				}
			}
		default:
			for i := 0; i < 40; i++ {
				row := make([]types.Object, len(def.Args))
				for j, k := range def.Args {
					vals := byKind[k]
					if len(vals) == 0 {
						t.Fatalf("%s: no test values of kind %v", name, k)
					}
					row[j] = vals[(i+j*3)%len(vals)]
				}
				rows = append(rows, row)
			}
		}
		t.Run(name, func(t *testing.T) {
			if def.Aggregate {
				aggregateThreeWays(t, def, rows)
				return
			}
			native, err := ops.NewNativeScalar(def)
			if err != nil {
				t.Fatal(err)
			}
			p := def.Program()
			for _, row := range rows {
				want, nerr := native.Call(row)
				v, _, verr := vm.ParityFrom(t, p, p.FuncIndex("eval"), vm.Limits{}, make([]vm.Value, p.NGlobals), vmArgs(row))
				if (nerr == nil) != (verr == nil) {
					t.Fatalf("%v: native err=%v, shipped err=%v", row, nerr, verr)
				}
				if nerr != nil {
					continue
				}
				got, err := ops.FromVM(v, def.Ret)
				if err != nil || !sameObject(want, got) {
					t.Fatalf("%v: native %v, shipped %v (%v)", row, want, got, err)
				}
			}
		})
	}
}

func vmArgs(row []types.Object) []vm.Value {
	out := make([]vm.Value, len(row))
	for i, o := range row {
		out[i] = ops.ToVM(o)
	}
	return out
}

// aggregateThreeWays folds the rows in groups of seven through
// Reset/Update/Summarize, carrying the reference's globals from one
// invocation to the next.
func aggregateThreeWays(t *testing.T, def *ops.Def, rows [][]types.Object) {
	native, err := ops.NewNativeAggregate(def)
	if err != nil {
		t.Fatal(err)
	}
	p := def.Program()
	globals := make([]vm.Value, p.NGlobals)
	step := func(fn string, args []vm.Value) vm.Value {
		v, g, err := vm.ParityFrom(t, p, p.FuncIndex(fn), vm.Limits{}, globals, args)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		globals = g
		return v
	}
	for start := 0; start < len(rows); start += 7 {
		native.Reset()
		step("reset", nil)
		for _, row := range rows[start:min(start+7, len(rows))] {
			if err := native.Update(row); err != nil {
				t.Fatal(err)
			}
			step("update", vmArgs(row))
		}
		want, err := native.Summarize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ops.FromVM(step("summarize", nil), def.Ret)
		if err != nil || !sameObject(want, got) {
			t.Fatalf("group at row %d: native %v, shipped %v (%v)", start, want, got, err)
		}
	}
}
