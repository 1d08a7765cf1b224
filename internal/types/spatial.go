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
func (p Polygon) Vertex(i int) Point { return point(p.h.data()[4+8*i:]) }

// records splits a payload that starts with a 4-byte record count n into
// its n 8-byte records and the bytes after them: a polygon's ring, or a
// graph's vertices followed by its edge list. A payload too short for its
// count has none; decoded values never are (ValueSize sizes them).
func records(b []byte) (recs, rest []byte) {
	if len(b) < 4 {
		return nil, nil
	}
	end := 4 + 8*int(binary.BigEndian.Uint32(b))
	if end > len(b) {
		return nil, nil
	}
	return b[4:end], b[end:]
}

// point decodes the vertex record at the front of b: two big-endian
// float32 coordinates. It is the package's one vertex decoder.
func point(b []byte) Point {
	_ = b[7]
	return Point{
		X: math.Float32frombits(binary.BigEndian.Uint32(b)),
		Y: math.Float32frombits(binary.BigEndian.Uint32(b[4:])),
	}
}

// hyp returns sqrt(dx·dx + dy·dy). The geometry kernels compute what the
// shipped classes do, in bytecode order, and round every operation to
// float64 on its own through an explicit conversion, so the compiler
// cannot fuse a multiply and an add into an FMA (arm64 would).
func hyp(dx, dy float64) float64 {
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

// Area returns the absolute shoelace area of the ring.
func (p Polygon) Area() float64 {
	ring, _ := records(p.h.data())
	if len(ring) < 3*8 {
		return 0
	}
	prev := point(ring[len(ring)-8:])
	px, py, sum := float64(prev.X), float64(prev.Y), 0.0
	for ; len(ring) >= 8; ring = ring[8:] {
		cur := point(ring)
		cx, cy := float64(cur.X), float64(cur.Y)
		sum = float64(px*cy) - float64(cx*py) + sum
		px, py = cx, cy
	}
	return math.Abs(sum) / 2
}

// Perimeter returns the total length of the closed ring boundary.
func (p Polygon) Perimeter() float64 {
	ring, _ := records(p.h.data())
	if len(ring) < 2*8 {
		return 0
	}
	prev := point(ring[len(ring)-8:])
	px, py, sum := float64(prev.X), float64(prev.Y), 0.0
	for ; len(ring) >= 8; ring = ring[8:] {
		cur := point(ring)
		cx, cy := float64(cur.X), float64(cur.Y)
		sum = hyp(cx-px, cy-py) + sum
		px, py = cx, cy
	}
	return sum
}

// BoundingBox returns the smallest rectangle enclosing the polygon.
func (p Polygon) BoundingBox() Rectangle {
	ring, _ := records(p.h.data())
	if len(ring) < 8 {
		return Rectangle{}
	}
	v := point(ring)
	r := Rectangle{XMin: v.X, YMin: v.Y, XMax: v.X, YMax: v.Y}
	for ring = ring[8:]; len(ring) >= 8; ring = ring[8:] {
		v = point(ring)
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
func (g Graph) Vertex(i int) Point { return point(g.h.data()[4+8*i:]) }

// Edge returns the i-th edge.
func (g Graph) Edge(i int) GraphEdge {
	off := 4 + 8*g.NumVertices() + 4 + 8*i
	return GraphEdge{
		A: int32(binary.BigEndian.Uint32(g.h.data()[off:])),
		B: int32(binary.BigEndian.Uint32(g.h.data()[off+4:])),
	}
}

// TotalLength returns the summed Euclidean length of all edges — the
// total length of the drainage network. It panics where Length returns
// an error: only a graph read from outside the program can get there.
func (g Graph) TotalLength() float64 {
	sum, err := g.Length()
	if err != nil {
		panic(err)
	}
	return sum
}

// Length is TotalLength for any graph. ValueSize does not check edge
// indices, so an edge end may name a vertex record that lies, wholly or
// in part, outside the payload: an error, where the shipped class traps
// on the load. One inside the payload is read wherever it lies, as the
// class reads it.
func (g Graph) Length() (float64, error) {
	buf := g.h.data()
	_, rest := records(buf)
	edges, _ := records(rest)
	sum := 0.0
	for e := 0; len(edges) >= 8; e, edges = e+1, edges[8:] {
		ia, ib := int32(binary.BigEndian.Uint32(edges)), int32(binary.BigEndian.Uint32(edges[4:]))
		oa, ob := 4+8*int64(ia), 4+8*int64(ib)
		if lim := int64(len(buf)) - 8; oa < 0 || oa > lim || ob < 0 || ob > lim {
			return 0, fmt.Errorf("types: edge %d (%d, %d) names a vertex outside the %d-byte graph", e, ia, ib, len(buf))
		}
		a, b := point(buf[oa:]), point(buf[ob:])
		sum = hyp(float64(a.X)-float64(b.X), float64(a.Y)-float64(b.Y)) + sum
	}
	return sum, nil
}
