package types

import (
	"math"
	"testing"
	"testing/quick"
)

func square(side float32) Polygon {
	return NewPolygon([]Point{{0, 0}, {side, 0}, {side, side}, {0, side}})
}

func TestPolygonAreaPerimeter(t *testing.T) {
	p := square(4)
	if got := p.Area(); math.Abs(got-16) > 1e-9 {
		t.Errorf("square area = %g, want 16", got)
	}
	if got := p.Perimeter(); math.Abs(got-16) > 1e-9 {
		t.Errorf("square perimeter = %g, want 16", got)
	}
	tri := NewPolygon([]Point{{0, 0}, {3, 0}, {0, 4}})
	if got := tri.Area(); math.Abs(got-6) > 1e-9 {
		t.Errorf("triangle area = %g, want 6", got)
	}
	if got := tri.Perimeter(); math.Abs(got-12) > 1e-9 {
		t.Errorf("triangle perimeter = %g, want 12", got)
	}
}

func TestPolygonDegenerate(t *testing.T) {
	empty := NewPolygon(nil)
	if empty.Area() != 0 || empty.Perimeter() != 0 || empty.NumVertices() != 0 {
		t.Error("empty polygon should have zero measures")
	}
	seg := NewPolygon([]Point{{0, 0}, {1, 0}})
	if seg.Area() != 0 {
		t.Error("2-vertex polygon has no area")
	}
	if got := seg.Perimeter(); math.Abs(got-2) > 1e-9 {
		t.Errorf("2-vertex ring perimeter = %g, want 2 (out and back)", got)
	}
}

func TestPolygonRoundTrip(t *testing.T) {
	p := NewPolygon([]Point{{1, 2}, {3, 4}, {5, 0}})
	v := roundTrip(t, p).(Polygon)
	if v.NumVertices() != 3 || v.Vertex(1) != (Point{3, 4}) {
		t.Errorf("polygon round trip lost vertices: %v", v)
	}
}

func TestPolygonFromPayloadValidation(t *testing.T) {
	if _, err := FromPayload(KindPolygon, []byte{0, 0}); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := FromPayload(KindPolygon, []byte{0, 0, 0, 9, 1, 2}); err == nil {
		t.Error("inconsistent vertex count accepted")
	}
	p, err := FromPayload(KindPolygon, square(2).Payload())
	if err != nil || p.(Polygon).NumVertices() != 4 {
		t.Errorf("valid payload rejected: %v", err)
	}
}

func TestPolygonBoundingBox(t *testing.T) {
	p := NewPolygon([]Point{{-1, 5}, {3, -2}, {0, 0}})
	bb := p.BoundingBox()
	want := Rectangle{-1, -2, 3, 5}
	if bb != want {
		t.Errorf("bounding box = %v, want %v", bb, want)
	}
	if (Polygon{}).BoundingBox() != (Rectangle{}) {
		t.Error("empty polygon bounding box should be zero")
	}
}

func TestQuickClipAreaNotLarger(t *testing.T) {
	// Property: a polygon's bounding box always has area >= the polygon's.
	f := func(coords [6]int8) bool {
		pts := []Point{
			{float32(coords[0]), float32(coords[1])},
			{float32(coords[2]), float32(coords[3])},
			{float32(coords[4]), float32(coords[5])},
		}
		p := NewPolygon(pts)
		return p.BoundingBox().Area() >= p.Area()-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := NewGraph(
		[]Point{{0, 0}, {3, 4}, {3, 0}},
		[]GraphEdge{{0, 1}, {1, 2}, {2, 0}},
	)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("graph = %v", g)
	}
	// Edges: (0,0)-(3,4)=5, (3,4)-(3,0)=4, (3,0)-(0,0)=3 → total 12.
	if got := g.TotalLength(); math.Abs(got-12) > 1e-9 {
		t.Errorf("total length = %g, want 12", got)
	}
	if g.Edge(1) != (GraphEdge{1, 2}) {
		t.Errorf("Edge(1) = %v", g.Edge(1))
	}
	if g.Vertex(1) != (Point{3, 4}) {
		t.Errorf("Vertex(1) = %v", g.Vertex(1))
	}
}

func TestGraphRoundTrip(t *testing.T) {
	g := NewGraph([]Point{{1, 1}, {2, 2}}, []GraphEdge{{0, 1}})
	v := roundTrip(t, g).(Graph)
	if v.NumVertices() != 2 || v.NumEdges() != 1 {
		t.Errorf("graph round trip lost data: %v", v)
	}
}

func TestGraphFromPayloadValidation(t *testing.T) {
	if _, err := FromPayload(KindGraph, nil); err == nil {
		t.Error("nil payload accepted")
	}
	if _, err := FromPayload(KindGraph, []byte{0, 0, 0, 2, 0, 0, 0, 0}); err == nil {
		t.Error("truncated vertex payload accepted")
	}
	good := NewGraph([]Point{{0, 0}}, nil).Payload()
	if _, err := FromPayload(KindGraph, good); err != nil {
		t.Errorf("valid payload rejected: %v", err)
	}
}

func TestGraphEmpty(t *testing.T) {
	g := NewGraph(nil, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.TotalLength() != 0 {
		t.Error("empty graph should have zero measures")
	}
}

func TestRectangleGeometry(t *testing.T) {
	r := Rectangle{1, 2, 4, 6}
	if r.Width() != 3 || r.Height() != 4 || r.Area() != 12 {
		t.Errorf("rectangle geometry: w=%g h=%g a=%g", r.Width(), r.Height(), r.Area())
	}
	if !r.Contains(1, 2) || !r.Contains(4, 6) || r.Contains(0, 3) || r.Contains(2, 7) {
		t.Error("rectangle containment broken")
	}
}

// TestKernelAllocBudgets pins what the kernels the QPC runs for a
// data-shipped call allocate: the scalar geometry and energy kernels
// nothing, and the raster kernels their result alone — the buffer and
// its header.
func TestKernelAllocBudgets(t *testing.T) {
	ring := make([]Point, 64)
	for i := range ring {
		ring[i] = Point{X: float32(i % 7), Y: float32(i % 5)}
	}
	p := NewPolygon(ring)
	g := NewGraph(ring, []GraphEdge{{0, 1}, {5, 63}, {7, 7}})
	r := NewRaster(37, 11, make([]byte, 37*11))
	var sink float64
	for _, c := range []struct {
		name   string
		allocs float64
		run    func()
	}{
		{"Polygon.Area", 0, func() { sink += p.Area() }},
		{"Polygon.Perimeter", 0, func() { sink += p.Perimeter() }},
		{"Polygon.BoundingBox", 0, func() { sink += float64(p.BoundingBox().XMax) }},
		{"Graph.TotalLength", 0, func() { sink += g.TotalLength() }},
		{"Raster.AvgEnergy", 0, func() { sink += r.AvgEnergy() }},
		{"Raster.IncrRes", 2, func() { sink += float64(r.IncrRes(2).Width()) }},
		{"Raster.Clip", 2, func() { sink += float64(r.Clip(3, 2, 20, 5).Width()) }},
	} {
		if got := testing.AllocsPerRun(50, c.run); got != c.allocs {
			t.Errorf("%s allocates %v times a call, want %v", c.name, got, c.allocs)
		}
	}
	if sink == 0 {
		t.Error("the kernels computed nothing")
	}
}
