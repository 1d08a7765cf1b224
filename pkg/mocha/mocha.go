// Package mocha is the public API of the MOCHA middleware: a
// self-extensible database middleware system for distributed data
// sources, reproducing Rodríguez-Martínez & Roussopoulos (SIGMOD 2000).
//
// The package offers two entry points:
//
//   - Cluster: an embedded deployment that runs a QPC and any number of
//     DAP-fronted data sites inside one process over an (optionally
//     bandwidth-shaped) in-memory network. This is the fastest way to
//     experiment and is what the examples and benchmarks use.
//   - Client: a wire-protocol client for a remote QPC started with
//     cmd/mocha-qpc.
//
// Queries are SQL with user-defined operators (AvgEnergy, Clip,
// TotalArea, …). The middleware decides, per operator, whether to ship
// its MVM bytecode to the data site (code shipping) or evaluate it at
// the coordinator (data shipping), using the Volume Reduction Factor.
package mocha

import (
	"mocha/internal/core"
	"mocha/internal/ops"
	"mocha/internal/qpc"
	"mocha/internal/types"
)

// Re-exported middleware types, so applications can build schemas and
// values without reaching into internal packages.
type (
	// Object is a middleware value.
	Object = types.Object
	// Tuple is one result row.
	Tuple = types.Tuple
	// Schema describes a relation.
	Schema = types.Schema
	// Column is one schema column.
	Column = types.Column
	// Kind identifies a middleware type.
	Kind = types.Kind

	// Int is the 32-bit middleware integer.
	Int = types.Int
	// Double is the middleware float64.
	Double = types.Double
	// Bool is the middleware boolean.
	Bool = types.Bool
	// String is the middleware string.
	String = types.String_
	// Point is an (x, y) coordinate.
	Point = types.Point
	// Rectangle is an axis-aligned box.
	Rectangle = types.Rectangle
	// Polygon is a closed vertex ring.
	Polygon = types.Polygon
	// Graph is a vertices+edges network.
	Graph = types.Graph
	// Raster is a 2D grid of byte samples.
	Raster = types.Raster

	// OperatorDef describes a user-defined operator (native + MVM
	// implementations plus placement statistics).
	OperatorDef = ops.Def

	// QueryStats is the measured execution breakdown of one query.
	QueryStats = qpc.QueryStats
	// Result is a materialized query result.
	Result = qpc.Result

	// Strategy selects the operator placement policy.
	Strategy = core.Strategy
)

// Middleware kind constants.
const (
	KindNull      = types.KindNull
	KindBool      = types.KindBool
	KindInt       = types.KindInt
	KindDouble    = types.KindDouble
	KindString    = types.KindString
	KindBytes     = types.KindBytes
	KindPoint     = types.KindPoint
	KindRectangle = types.KindRectangle
	KindPolygon   = types.KindPolygon
	KindGraph     = types.KindGraph
	KindRaster    = types.KindRaster
)

// Placement strategies.
const (
	// StrategyAuto places each operator by its Volume Reduction Factor.
	StrategyAuto = core.StrategyAuto
	// StrategyCodeShip forces operators to the data sites.
	StrategyCodeShip = core.StrategyCodeShip
	// StrategyDataShip forces operators to the coordinator.
	StrategyDataShip = core.StrategyDataShip
)

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return types.NewSchema(cols...) }

// NewRaster builds a raster value.
func NewRaster(w, h int, pixels []byte) Raster { return types.NewRaster(w, h, pixels) }

// NewPolygon builds a polygon value.
func NewPolygon(pts []Point) Polygon { return types.NewPolygon(pts) }

// NewGraph builds a graph value.
func NewGraph(vertices []Point, edges []types.GraphEdge) Graph {
	return types.NewGraph(vertices, edges)
}

// GraphEdge is one undirected graph edge.
type GraphEdge = types.GraphEdge

// BuiltinOperators returns a registry preloaded with the full Sequoia
// operator library.
func BuiltinOperators() *ops.Registry { return ops.Builtins() }
