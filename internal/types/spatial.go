package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Point is a small spatial type: an (x, y) coordinate pair stored as two
// float32 values, 8 bytes on the wire.
type Point struct {
	X, Y float32
}

// Kind implements Object.
func (Point) Kind() Kind { return KindPoint }

// WireSize implements Object.
func (Point) WireSize() int { return 8 }

// AppendTo implements Object.
func (p Point) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(p.X))
	return binary.BigEndian.AppendUint32(buf, math.Float32bits(p.Y))
}

// String implements Object.
func (p Point) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }

// Equal implements Small.
func (p Point) Equal(o Object) bool { op, ok := o.(Point); return ok && op == p }

// Less implements Small. Points order lexicographically by (X, Y).
func (p Point) Less(o Object) bool {
	op, ok := o.(Point)
	if !ok {
		return false
	}
	if p.X != op.X {
		return p.X < op.X
	}
	return p.Y < op.Y
}

// Hash implements Small.
func (p Point) Hash() uint64 {
	return mix64(uint64(math.Float32bits(p.X))<<32 | uint64(math.Float32bits(p.Y)))
}

// Rectangle is a small spatial type: an axis-aligned box stored as four
// float32 coordinates, 16 bytes on the wire — matching the 16-byte
// location attribute of the paper's Rasters table.
type Rectangle struct {
	XMin, YMin, XMax, YMax float32
}

// Kind implements Object.
func (Rectangle) Kind() Kind { return KindRectangle }

// WireSize implements Object.
func (Rectangle) WireSize() int { return 16 }

// AppendTo implements Object.
func (r Rectangle) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(r.XMin))
	buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(r.YMin))
	buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(r.XMax))
	return binary.BigEndian.AppendUint32(buf, math.Float32bits(r.YMax))
}

// String implements Object.
func (r Rectangle) String() string {
	return fmt.Sprintf("[%g,%g,%g,%g]", r.XMin, r.YMin, r.XMax, r.YMax)
}

// Equal implements Small.
func (r Rectangle) Equal(o Object) bool { or, ok := o.(Rectangle); return ok && or == r }

// Less implements Small. Rectangles order lexicographically by their four
// coordinates, which is sufficient for deterministic sorting and joins.
func (r Rectangle) Less(o Object) bool {
	or, ok := o.(Rectangle)
	if !ok {
		return false
	}
	a := [4]float32{r.XMin, r.YMin, r.XMax, r.YMax}
	b := [4]float32{or.XMin, or.YMin, or.XMax, or.YMax}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Hash implements Small.
func (r Rectangle) Hash() uint64 {
	h := mix64(uint64(math.Float32bits(r.XMin))<<32 | uint64(math.Float32bits(r.YMin)))
	return h ^ mix64(uint64(math.Float32bits(r.XMax))<<32|uint64(math.Float32bits(r.YMax)))
}

// Width returns XMax-XMin.
func (r Rectangle) Width() float64 { return float64(r.XMax) - float64(r.XMin) }

// Height returns YMax-YMin.
func (r Rectangle) Height() float64 { return float64(r.YMax) - float64(r.YMin) }

// Area returns the rectangle's area.
func (r Rectangle) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether the point (x, y) lies inside or on the boundary
// of the rectangle.
func (r Rectangle) Contains(x, y float32) bool {
	return x >= r.XMin && x <= r.XMax && y >= r.YMin && y <= r.YMax
}

// Polygon is a large spatial type: a closed ring of vertices. Wire format:
// a 4-byte vertex count followed by 8 bytes (two float32) per vertex.
type Polygon struct {
	h *header
}

// NewPolygon builds a polygon from its vertex ring. The ring is implicitly
// closed (the last vertex connects back to the first).
func NewPolygon(pts []Point) Polygon {
	buf := make([]byte, 0, 4+8*len(pts))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pts)))
	for _, p := range pts {
		buf = p.AppendTo(buf)
	}
	return Polygon{&header{buf}}
}

// Kind implements Object.
func (Polygon) Kind() Kind { return KindPolygon }

// WireSize implements Object.
func (p Polygon) WireSize() int { return len(p.h.data()) }

// AppendTo implements Object.
func (p Polygon) AppendTo(buf []byte) []byte { return append(buf, p.h.data()...) }

// String implements Object.
func (p Polygon) String() string { return fmt.Sprintf("POLYGON[%d vertices]", p.NumVertices()) }

// Payload implements Large.
func (p Polygon) Payload() []byte { return p.h.data() }

// NumVertices returns the number of vertices in the ring.
func (p Polygon) NumVertices() int {
	if len(p.h.data()) < 4 {
		return 0
	}
	return int(binary.BigEndian.Uint32(p.h.data()))
}

// Vertex returns the i-th vertex.
func (p Polygon) Vertex(i int) Point {
	off := 4 + 8*i
	return Point{
		X: math.Float32frombits(binary.BigEndian.Uint32(p.h.data()[off:])),
		Y: math.Float32frombits(binary.BigEndian.Uint32(p.h.data()[off+4:])),
	}
}

// Area returns the absolute shoelace area of the ring.
func (p Polygon) Area() float64 {
	n := p.NumVertices()
	if n < 3 {
		return 0
	}
	var sum float64
	prev := p.Vertex(n - 1)
	for i := 0; i < n; i++ {
		cur := p.Vertex(i)
		sum += float64(prev.X)*float64(cur.Y) - float64(cur.X)*float64(prev.Y)
		prev = cur
	}
	return math.Abs(sum) / 2
}

// Perimeter returns the total length of the closed ring boundary.
func (p Polygon) Perimeter() float64 {
	n := p.NumVertices()
	if n < 2 {
		return 0
	}
	var sum float64
	prev := p.Vertex(n - 1)
	for i := 0; i < n; i++ {
		cur := p.Vertex(i)
		dx := float64(cur.X) - float64(prev.X)
		dy := float64(cur.Y) - float64(prev.Y)
		sum += math.Sqrt(dx*dx + dy*dy)
		prev = cur
	}
	return sum
}

// BoundingBox returns the smallest rectangle enclosing the polygon.
func (p Polygon) BoundingBox() Rectangle {
	n := p.NumVertices()
	if n == 0 {
		return Rectangle{}
	}
	v := p.Vertex(0)
	r := Rectangle{XMin: v.X, YMin: v.Y, XMax: v.X, YMax: v.Y}
	for i := 1; i < n; i++ {
		v = p.Vertex(i)
		r.XMin = min(r.XMin, v.X)
		r.YMin = min(r.YMin, v.Y)
		r.XMax = max(r.XMax, v.X)
		r.YMax = max(r.YMax, v.Y)
	}
	return r
}

// Graph is a large type representing a water-drainage network (as in the
// Sequoia 2000 benchmark): a set of vertices with coordinates and a set of
// undirected edges between them. Wire format: 4-byte vertex count, 8 bytes
// per vertex (two float32), 4-byte edge count, 8 bytes per edge (two
// 4-byte vertex indices).
type Graph struct {
	h *header
}

// GraphEdge is one undirected edge between two vertex indices.
type GraphEdge struct {
	A, B int32
}

// NewGraph builds a graph from vertices and edges.
func NewGraph(vertices []Point, edges []GraphEdge) Graph {
	buf := make([]byte, 0, 8+8*len(vertices)+8*len(edges))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(vertices)))
	for _, v := range vertices {
		buf = v.AppendTo(buf)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.A))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.B))
	}
	return Graph{&header{buf}}
}

// Kind implements Object.
func (Graph) Kind() Kind { return KindGraph }

// WireSize implements Object.
func (g Graph) WireSize() int { return len(g.h.data()) }

// AppendTo implements Object.
func (g Graph) AppendTo(buf []byte) []byte { return append(buf, g.h.data()...) }

// String implements Object.
func (g Graph) String() string {
	return fmt.Sprintf("GRAPH[%d vertices, %d edges]", g.NumVertices(), g.NumEdges())
}

// Payload implements Large.
func (g Graph) Payload() []byte { return g.h.data() }

// NumVertices returns the vertex count.
func (g Graph) NumVertices() int {
	if len(g.h.data()) < 4 {
		return 0
	}
	return int(binary.BigEndian.Uint32(g.h.data()))
}

// NumEdges returns the edge count.
func (g Graph) NumEdges() int {
	off := 4 + 8*g.NumVertices()
	if len(g.h.data()) < off+4 {
		return 0
	}
	return int(binary.BigEndian.Uint32(g.h.data()[off:]))
}

// Vertex returns the i-th vertex coordinate.
func (g Graph) Vertex(i int) Point {
	off := 4 + 8*i
	return Point{
		X: math.Float32frombits(binary.BigEndian.Uint32(g.h.data()[off:])),
		Y: math.Float32frombits(binary.BigEndian.Uint32(g.h.data()[off+4:])),
	}
}

// Edge returns the i-th edge.
func (g Graph) Edge(i int) GraphEdge {
	off := 4 + 8*g.NumVertices() + 4 + 8*i
	return GraphEdge{
		A: int32(binary.BigEndian.Uint32(g.h.data()[off:])),
		B: int32(binary.BigEndian.Uint32(g.h.data()[off+4:])),
	}
}

// TotalLength returns the summed Euclidean length of all edges — the
// total length of the drainage network.
func (g Graph) TotalLength() float64 {
	var sum float64
	ne := g.NumEdges()
	for i := 0; i < ne; i++ {
		e := g.Edge(i)
		a, b := g.Vertex(int(e.A)), g.Vertex(int(e.B))
		dx := float64(a.X) - float64(b.X)
		dy := float64(a.Y) - float64(b.Y)
		sum += math.Sqrt(dx*dx + dy*dy)
	}
	return sum
}
