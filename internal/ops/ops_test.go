package ops

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mocha/internal/types"
	"mocha/internal/vm"
)

func builtin(t *testing.T, name string) *Def {
	t.Helper()
	d, ok := Builtins().Lookup(name)
	if !ok {
		t.Fatalf("builtin %s not registered", name)
	}
	return d
}

// callBoth runs an operator natively and through the MVM (via its
// serialized, re-decoded, re-verified program — the exact path a shipped
// operator takes) and requires both to succeed.
func callBoth(t *testing.T, d *Def, args []types.Object) (native, shipped types.Object) {
	t.Helper()
	ns, err := NewNativeScalar(d)
	if err != nil {
		t.Fatal(err)
	}
	native, err = ns.Call(args)
	if err != nil {
		t.Fatalf("%s native: %v", d.Name, err)
	}
	// Ship the program: encode, decode, verify, load.
	prog, err := vm.Decode(d.Program().Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Verify(prog); err != nil {
		t.Fatal(err)
	}
	vs, err := NewVMScalar(vm.New(vm.Limits{}), prog, d.Ret)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err = vs.Call(args)
	if err != nil {
		t.Fatalf("%s shipped: %v", d.Name, err)
	}
	return native, shipped
}

func wantClose(t *testing.T, name string, a, b types.Object, tol float64) {
	t.Helper()
	da, aok := a.(types.Double)
	db, bok := b.(types.Double)
	if !aok || !bok {
		t.Fatalf("%s: expected doubles, got %T and %T", name, a, b)
	}
	if math.Abs(float64(da)-float64(db)) > tol {
		t.Errorf("%s: native=%v shipped=%v differ beyond %g", name, da, db, tol)
	}
}

func randRaster(rng *rand.Rand, maxDim int) types.Raster {
	w, h := rng.Intn(maxDim)+1, rng.Intn(maxDim)+1
	px := make([]byte, w*h)
	rng.Read(px)
	return types.NewRaster(w, h, px)
}

func randPolygon(rng *rand.Rand, maxVerts int) types.Polygon {
	n := rng.Intn(maxVerts) + 3
	pts := make([]types.Point, n)
	for i := range pts {
		pts[i] = types.Point{X: rng.Float32() * 100, Y: rng.Float32() * 100}
	}
	return types.NewPolygon(pts)
}

func randGraph(rng *rand.Rand, maxVerts int) types.Graph {
	nv := rng.Intn(maxVerts) + 2
	verts := make([]types.Point, nv)
	for i := range verts {
		verts[i] = types.Point{X: rng.Float32() * 1000, Y: rng.Float32() * 1000}
	}
	ne := rng.Intn(2 * nv)
	edges := make([]types.GraphEdge, ne)
	for i := range edges {
		edges[i] = types.GraphEdge{A: int32(rng.Intn(nv)), B: int32(rng.Intn(nv))}
	}
	return types.NewGraph(verts, edges)
}

func TestAvgEnergyEquivalence(t *testing.T) {
	d := builtin(t, "AvgEnergy")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 25; i++ {
		r := randRaster(rng, 40)
		native, shipped := callBoth(t, d, []types.Object{r})
		wantClose(t, "AvgEnergy", native, shipped, 1e-9)
		if got := float64(native.(types.Double)); math.Abs(got-r.AvgEnergy()) > 1e-9 {
			t.Fatalf("native AvgEnergy=%g, types=%g", got, r.AvgEnergy())
		}
	}
}

func TestAvgEnergyEmptyRaster(t *testing.T) {
	d := builtin(t, "AvgEnergy")
	native, shipped := callBoth(t, d, []types.Object{types.NewRaster(0, 0, nil)})
	wantClose(t, "AvgEnergy(empty)", native, shipped, 0)
}

func TestClipEquivalence(t *testing.T) {
	d := builtin(t, "Clip")
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 25; i++ {
		r := randRaster(rng, 30)
		win := types.Rectangle{
			XMin: float32(rng.Intn(40) - 5), YMin: float32(rng.Intn(40) - 5),
			XMax: float32(rng.Intn(40) - 5), YMax: float32(rng.Intn(40) - 5),
		}
		if win.XMax < win.XMin {
			win.XMin, win.XMax = win.XMax, win.XMin
		}
		if win.YMax < win.YMin {
			win.YMin, win.YMax = win.YMax, win.YMin
		}
		native, shipped := callBoth(t, d, []types.Object{r, win})
		nr, sr := native.(types.Raster), shipped.(types.Raster)
		if nr.Width() != sr.Width() || nr.Height() != sr.Height() {
			t.Fatalf("clip dims differ: native %dx%d shipped %dx%d", nr.Width(), nr.Height(), sr.Width(), sr.Height())
		}
		if string(nr.Pixels()) != string(sr.Pixels()) {
			t.Fatal("clip pixels differ between native and shipped")
		}
	}
}

func TestIncrResEquivalence(t *testing.T) {
	d := builtin(t, "IncrRes")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 15; i++ {
		r := randRaster(rng, 16)
		k := types.Int(rng.Intn(4)) // includes 0 → clamped to 1
		native, shipped := callBoth(t, d, []types.Object{r, k})
		nr, sr := native.(types.Raster), shipped.(types.Raster)
		if string(nr.Payload()) != string(sr.Payload()) {
			t.Fatalf("IncrRes output differs for k=%d", k)
		}
		kk := max(int(k), 1)
		if nr.Width() != r.Width()*kk || len(nr.Pixels()) != kk*kk*len(r.Pixels()) {
			t.Fatalf("IncrRes(%d) wrong inflation: %dx%d from %dx%d", kk, nr.Width(), nr.Height(), r.Width(), r.Height())
		}
	}
}

// TestRasterKernelsOnOddShapes runs the two native row kernels against
// their shipped classes over shapes the Sequoia data never has — empty,
// one row, one column, w≠h — and every scale factor that takes a
// different path (clamped, identity, even, odd, large): the results must
// be the same bytes.
func TestRasterKernelsOnOddShapes(t *testing.T) {
	incr, rot := builtin(t, "IncrRes"), builtin(t, "Rotate90")
	rng := rand.New(rand.NewSource(21))
	for _, dim := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 9}, {9, 1}, {3, 7}, {7, 3}, {13, 13}} {
		px := make([]byte, dim[0]*dim[1])
		rng.Read(px)
		r := types.NewRaster(dim[0], dim[1], px)
		native, shipped := callBoth(t, rot, []types.Object{r})
		if string(native.(types.Raster).Payload()) != string(shipped.(types.Raster).Payload()) {
			t.Errorf("Rotate90 of %v: native and shipped differ", r)
		}
		for _, k := range []types.Int{-1, 0, 1, 2, 3, 7} {
			native, shipped := callBoth(t, incr, []types.Object{r, k})
			if string(native.(types.Raster).Payload()) != string(shipped.(types.Raster).Payload()) {
				t.Errorf("IncrRes(%v, %d): native and shipped differ", r, k)
			}
		}
	}
}

// TestClipKernelOnOddWindows runs native Clip against the shipped class,
// which moves a row at a time, over windows the Sequoia queries never
// ask for: empty, the whole image and more, one column, one row, wholly
// outside on every side, inverted, fractional and negative corners. The
// results must be the same bytes.
func TestClipKernelOnOddWindows(t *testing.T) {
	clip := builtin(t, "Clip")
	rng := rand.New(rand.NewSource(22))
	for _, dim := range [][2]int{{0, 0}, {0, 4}, {1, 1}, {1, 9}, {9, 1}, {7, 3}, {13, 13}} {
		px := make([]byte, dim[0]*dim[1])
		rng.Read(px)
		r := types.NewRaster(dim[0], dim[1], px)
		w, h := float32(dim[0]), float32(dim[1])
		for _, win := range []types.Rectangle{
			{},                                   // empty, at the origin
			{XMin: 2, YMin: 2, XMax: 2, YMax: 2}, // empty, inside
			{XMax: w, YMax: h},                   // the whole image
			{XMin: -5, YMin: -5, XMax: w + 5, YMax: h + 5},       // and more
			{XMin: 1, XMax: 2, YMax: h},                          // one column
			{YMin: 1, XMax: w, YMax: 2},                          // one row
			{XMin: w, YMin: h, XMax: w + 3, YMax: h + 3},         // outside, below right
			{XMin: -9, YMin: -9, XMax: -1, YMax: -1},             // outside, above left
			{XMin: 6, YMin: 2, XMax: 1, YMax: 0},                 // inverted
			{XMin: 0.9, YMin: 1.5, XMax: w - 0.1, YMax: h - 1.5}, // fractional
		} {
			native, shipped := callBoth(t, clip, []types.Object{r, win})
			if string(native.(types.Raster).Payload()) != string(shipped.(types.Raster).Payload()) {
				t.Errorf("Clip(%v, %v): native %v and shipped %v differ", r, win, native, shipped)
			}
		}
	}
}

// TestScalarHandsOverItsOwnResult pins who owns a result (bridge.go): a
// scalar's writable buffer is the object it returns — no second copy is
// allocated, and a later call on the same Scalar, which reuses the same
// machine, leaves it alone — while a result that aliases an argument and
// an aggregate's buffer kept in a global are copied out. Run under -race.
func TestScalarHandsOverItsOwnResult(t *testing.T) {
	d := builtin(t, "IncrRes")
	vs, err := NewVMScalar(vm.New(vm.Limits{}), d.Program(), d.Ret)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	a, b := randRaster(rng, 40), randRaster(rng, 40)
	first, err := vs.Call([]types.Object{a, types.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	want := a.IncrRes(3).Payload()
	if _, err := vs.Call([]types.Object{b, types.Int(3)}); err != nil {
		t.Fatal(err)
	}
	if string(first.(types.Raster).Payload()) != string(want) {
		t.Error("a second call on the same Scalar changed the first call's result")
	}
	big := types.NewRaster(128, 128, make([]byte, 128*128))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		if _, err := vs.Call([]types.Object{big, types.Int(2)}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per, size := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(4*big.WireSize()); per > size*3/2 {
		t.Errorf("a call allocates %d bytes for a %d-byte result: it was copied", per, size)
	}

	// The whole argument, returned as it came: read-only, so copied.
	alias, err := NewVMScalar(vm.New(vm.Limits{}),
		vm.MustAssemble("program alias\nfunc eval args=1 locals=0\narg 0\npushi 0\narg 0\nblen\nbslice\nret\nend"), types.KindRaster)
	if err != nil {
		t.Fatal(err)
	}
	got, err := alias.Call([]types.Object{a})
	if err != nil {
		t.Fatal(err)
	}
	pixel := a.At(0, 0)
	a.Payload()[8] ^= 0xff
	if got.(types.Raster).At(0, 0) != pixel {
		t.Error("a result aliasing its argument was handed over, not copied")
	}

	// An aggregate that returns the buffer it keeps writing: copied.
	agg, err := NewVMAggregate(vm.New(vm.Limits{}), vm.MustAssemble(`
program keeps
globals 1
func reset args=0 locals=0
  pushi 9
  bnew
  pushi 0
  pushi 1
  sti32
  pushi 4
  pushi 1
  sti32
  gstore 0
  ret
end
func update args=1 locals=0
  gload 0
  pushi 8
  arg 0
  stu8
  ret
end
func summarize args=0 locals=0
  gload 0
  ret
end`), types.KindRaster)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Reset(); err != nil {
		t.Fatal(err)
	}
	var sums [2]types.Object
	for i := range sums {
		if err := agg.Update([]types.Object{types.Int(5 + i)}); err != nil {
			t.Fatal(err)
		}
		if sums[i], err = agg.Summarize(); err != nil {
			t.Fatal(err)
		}
	}
	if p, q := sums[0].(types.Raster).At(0, 0), sums[1].(types.Raster).At(0, 0); p != 5 || q != 6 {
		t.Errorf("aggregate summaries hold %d and %d, want 5 and 6: the first followed the global", p, q)
	}
}

// TestIncrResRefusesWhatTheClassCannotAllocate: a scale factor is user
// input, and a result past the MVM's allocation limit is an error from
// the native operator too — not a multi-gigabyte allocation or a panic.
func TestIncrResRefusesWhatTheClassCannotAllocate(t *testing.T) {
	ns, err := NewNativeScalar(builtin(t, "IncrRes"))
	if err != nil {
		t.Fatal(err)
	}
	r := types.NewRaster(64, 64, make([]byte, 64*64))
	for _, k := range []types.Int{300, math.MaxInt32} {
		if v, err := ns.Call([]types.Object{r, k}); err == nil {
			t.Errorf("IncrRes(64x64, %d) = %v, want an error", k, v)
		}
	}
}

func TestRotate90Equivalence(t *testing.T) {
	d := builtin(t, "Rotate90")
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 15; i++ {
		r := randRaster(rng, 20)
		native, shipped := callBoth(t, d, []types.Object{r})
		if string(native.(types.Raster).Payload()) != string(shipped.(types.Raster).Payload()) {
			t.Fatal("Rotate90 output differs")
		}
	}
}

func TestAreaPerimeterEquivalence(t *testing.T) {
	da, dp := builtin(t, "Area"), builtin(t, "Perimeter")
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		p := randPolygon(rng, 30)
		native, shipped := callBoth(t, da, []types.Object{p})
		wantClose(t, "Area", native, shipped, 1e-6*(1+p.Area()))
		native, shipped = callBoth(t, dp, []types.Object{p})
		wantClose(t, "Perimeter", native, shipped, 1e-6*(1+p.Perimeter()))
	}
}

func TestGraphOpsEquivalence(t *testing.T) {
	dn, dl := builtin(t, "NumVertices"), builtin(t, "TotalLength")
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 25; i++ {
		g := randGraph(rng, 40)
		native, shipped := callBoth(t, dn, []types.Object{g})
		if native.(types.Int) != shipped.(types.Int) || int(native.(types.Int)) != g.NumVertices() {
			t.Fatalf("NumVertices: native=%v shipped=%v want=%d", native, shipped, g.NumVertices())
		}
		native, shipped = callBoth(t, dl, []types.Object{g})
		wantClose(t, "TotalLength", native, shipped, 1e-6*(1+g.TotalLength()))
	}
}

func TestOverlapsEquivalence(t *testing.T) {
	d := builtin(t, "Overlaps")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		mk := func() types.Rectangle {
			x, y := rng.Float32()*10, rng.Float32()*10
			return types.Rectangle{XMin: x, YMin: y, XMax: x + rng.Float32()*5, YMax: y + rng.Float32()*5}
		}
		a, b := mk(), mk()
		native, shipped := callBoth(t, d, []types.Object{a, b})
		if native.(types.Bool) != shipped.(types.Bool) {
			t.Fatalf("Overlaps(%v, %v): native=%v shipped=%v", a, b, native, shipped)
		}
	}
}

func TestDiffEquivalence(t *testing.T) {
	d := builtin(t, "Diff")
	native, shipped := callBoth(t, d, []types.Object{types.Double(3.5), types.Double(10)})
	wantClose(t, "Diff", native, shipped, 0)
	if native.(types.Double) != 6.5 {
		t.Errorf("Diff(3.5,10) = %v, want 6.5", native)
	}
}

func TestNativeTypeErrors(t *testing.T) {
	for _, name := range []string{"AvgEnergy", "Area", "NumVertices", "TotalLength"} {
		d := builtin(t, name)
		s, err := NewNativeScalar(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Call([]types.Object{types.Int(1)}); err == nil {
			t.Errorf("%s accepted INT argument", name)
		}
	}
}

func TestRegistryBasics(t *testing.T) {
	r := Builtins()
	names := r.Names()
	if len(names) < 13 {
		t.Fatalf("expected at least 13 builtin operators, got %d: %v", len(names), names)
	}
	if _, ok := r.Lookup("avgenergy"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if _, ok := r.Lookup("NoSuchOp"); ok {
		t.Error("lookup invented an operator")
	}
	// Re-registration replaces (operator upgrade).
	d, _ := r.Lookup("Diff")
	upgraded := *d
	upgraded.URI = "mocha://ops/Diff#2.0"
	if err := r.Register(&upgraded); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Lookup("Diff")
	if got.URI != "mocha://ops/Diff#2.0" {
		t.Error("upgrade did not replace definition")
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&Def{Name: "", Source: "x"}); err == nil {
		t.Error("nameless def accepted")
	}
	if err := r.Register(&Def{Name: "X"}); err == nil {
		t.Error("sourceless def accepted")
	}
	if err := r.Register(&Def{Name: "X", Source: "garbage"}); err == nil {
		t.Error("unassemblable source accepted")
	}
	// Scalar source missing eval.
	if err := r.Register(&Def{Name: "X", Source: "program X\nfunc other args=0 locals=0\nret\nend"}); err == nil {
		t.Error("missing eval accepted")
	}
	// Aggregate source missing protocol functions.
	if err := r.Register(&Def{Name: "X", Aggregate: true, Source: "program X\nfunc eval args=0 locals=0\nret\nend"}); err == nil {
		t.Error("aggregate without protocol accepted")
	}
	// Arg count mismatch between def and source.
	if err := r.Register(&Def{
		Name: "X", Args: []types.Kind{types.KindInt, types.KindInt},
		Source: "program X\nfunc eval args=1 locals=0\narg 0\nret\nend",
	}); err == nil {
		t.Error("arg count mismatch accepted")
	}
}

func TestProgramChecksumStable(t *testing.T) {
	a := builtin(t, "AvgEnergy").Program().Checksum()
	b := builtin(t, "AvgEnergy").Program().Checksum()
	if a != b {
		t.Error("checksum of identical builtins differs across registries")
	}
	if a == builtin(t, "Clip").Program().Checksum() {
		t.Error("different programs share a checksum")
	}
}

func TestGeom2Equivalence(t *testing.T) {
	dc, db2, de := builtin(t, "Centroid"), builtin(t, "BoundingBox"), builtin(t, "NumEdges")
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 25; i++ {
		p := randPolygon(rng, 25)
		native, shipped := callBoth(t, dc, []types.Object{p})
		np, sp := native.(types.Point), shipped.(types.Point)
		if math.Abs(float64(np.X-sp.X)) > 1e-3 || math.Abs(float64(np.Y-sp.Y)) > 1e-3 {
			t.Fatalf("Centroid: native %v shipped %v", np, sp)
		}
		native, shipped = callBoth(t, db2, []types.Object{p})
		if native.(types.Rectangle) != shipped.(types.Rectangle) {
			t.Fatalf("BoundingBox: native %v shipped %v", native, shipped)
		}
		if native.(types.Rectangle) != p.BoundingBox() {
			t.Fatalf("BoundingBox wrong: %v vs %v", native, p.BoundingBox())
		}
		g := randGraph(rng, 20)
		native, shipped = callBoth(t, de, []types.Object{g})
		if native.(types.Int) != shipped.(types.Int) || int(native.(types.Int)) != g.NumEdges() {
			t.Fatalf("NumEdges: native %v shipped %v want %d", native, shipped, g.NumEdges())
		}
	}
	// Degenerate polygon.
	empty := types.NewPolygon(nil)
	native, shipped := callBoth(t, dc, []types.Object{empty})
	if native.(types.Point) != (types.Point{}) || shipped.(types.Point) != (types.Point{}) {
		t.Errorf("empty centroid: %v %v", native, shipped)
	}
}

func TestMakeRectEquivalence(t *testing.T) {
	d := builtin(t, "MakeRect")
	args := []types.Object{types.Double(1.5), types.Double(-2), types.Double(3), types.Double(4.25)}
	native, shipped := callBoth(t, d, args)
	want := types.Rectangle{XMin: 1.5, YMin: -2, XMax: 3, YMax: 4.25}
	if native.(types.Rectangle) != want || shipped.(types.Rectangle) != want {
		t.Errorf("MakeRect: native %v shipped %v want %v", native, shipped, want)
	}
}

func TestEstimateResultBytes(t *testing.T) {
	fixed := Def{ResultBytes: 8, ResultRatio: 2}
	if got := fixed.EstimateResultBytes(100); got != 8 {
		t.Errorf("fixed result = %d, want 8", got)
	}
	ratio := Def{ResultRatio: 0.5}
	if got := ratio.EstimateResultBytes(100); got != 50 {
		t.Errorf("ratio result = %d, want 50", got)
	}
}

// TestCompiledOperatorsReuseScratch pins the bridge's per-tuple costs and
// their one hazard: a bound Scalar or Aggregate converts its arguments
// into a slice it keeps, so a call allocates only its result — and a
// result that aliases an argument's payload (bslice) must still be
// intact after the next call reused that slice.
func TestCompiledOperatorsReuseScratch(t *testing.T) {
	diff, err := NewVMScalar(vm.New(vm.Limits{}), builtin(t, "Diff").Program(), types.KindDouble)
	if err != nil {
		t.Fatal(err)
	}
	args := []types.Object{types.Double(101.5), types.Double(99.25)}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := diff.Call(args); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Diff allocates %v times a call, want only the boxed result", n)
	}
	sum, err := NewVMAggregate(vm.New(vm.Limits{}), builtin(t, "Sum").Program(), types.KindDouble)
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Reset(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := sum.Update(args[:1]); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("Sum.Update allocates %v times a tuple, want none", n)
	}

	head, err := NewVMScalar(vm.New(vm.Limits{}), vm.MustAssemble(
		"program Head\nfunc eval args=1 locals=0\narg 0\npushi 0\npushi 2\nbslice\nret\nend"), types.KindBytes)
	if err != nil {
		t.Fatal(err)
	}
	first, err := head.Call([]types.Object{types.Bytes{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := head.Call([]types.Object{types.Bytes{7, 8, 9}}); err != nil {
		t.Fatal(err)
	}
	if got := first.(types.Bytes); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("first result changed under the second call: %v", got)
	}
}
