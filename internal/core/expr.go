// Package core implements MOCHA's query processing framework (section 4):
// plan expressions, plan fragments exchanged as XML documents, the Volume
// Reduction Factor cost model, and the operator-placement optimizer that
// decides — per user-defined operator — whether to code-ship it to the
// DAP or evaluate it at the QPC under data shipping.
package core

import (
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"strings"

	"mocha/internal/types"
)

// ExprKind discriminates plan expression nodes.
type ExprKind string

// Plan expression node kinds.
const (
	ExprCol   ExprKind = "col"   // input column reference
	ExprConst ExprKind = "const" // literal
	ExprCall  ExprKind = "call"  // user-defined scalar operator
	ExprBinop ExprKind = "binop" // arithmetic/comparison/logic
	ExprUnary ExprKind = "unary" // "-" or "NOT"
)

// PExpr is a typed, serializable plan expression over some input schema.
// Fragments carry PExprs to remote DAPs inside XML plan documents.
type PExpr struct {
	Kind  ExprKind     `xml:"kind,attr"`
	Col   int          `xml:"col,attr"`
	Const types.Object `xml:"-"`                   // carried by MarshalXML
	Op    string       `xml:"op,attr,omitempty"`   // binop: + - * / % = <> < <= > >= AND OR; unary: - NOT
	Func  string       `xml:"func,attr,omitempty"` // call: operator name
	Ret   types.Kind   `xml:"ret,attr"`
	Args  []*PExpr     `xml:"expr"`
}

// NewCol builds a column reference.
func NewCol(idx int, ret types.Kind) *PExpr {
	return &PExpr{Kind: ExprCol, Col: idx, Ret: ret}
}

// NewConst builds a literal.
func NewConst(v types.Object) *PExpr {
	return &PExpr{Kind: ExprConst, Const: v, Ret: v.Kind()}
}

// String renders the expression for diagnostics.
func (e *PExpr) String() string {
	switch e.Kind {
	case ExprCol:
		return fmt.Sprintf("$%d", e.Col)
	case ExprConst:
		return e.Const.String()
	case ExprCall:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.String()
		}
		return e.Func + "(" + strings.Join(parts, ", ") + ")"
	case ExprBinop:
		return "(" + e.Args[0].String() + " " + e.Op + " " + e.Args[1].String() + ")"
	case ExprUnary:
		return e.Op + " " + e.Args[0].String()
	}
	return "?"
}

// Walk visits e and its sub-expressions pre-order.
func (e *PExpr) Walk(fn func(*PExpr)) {
	if e == nil {
		return
	}
	fn(e)
	for _, a := range e.Args {
		a.Walk(fn)
	}
}

// Columns returns the distinct input columns the expression reads.
func (e *PExpr) Columns() []int {
	seen := map[int]bool{}
	var out []int
	e.Walk(func(x *PExpr) {
		if x.Kind == ExprCol && !seen[x.Col] {
			seen[x.Col] = true
			out = append(out, x.Col)
		}
	})
	return out
}

// Rewrite returns a structurally rewritten copy: fn is applied bottom-up
// and may return a replacement node.
func (e *PExpr) Rewrite(fn func(*PExpr) *PExpr) *PExpr {
	if e == nil {
		return nil
	}
	c := *e
	if len(e.Args) > 0 {
		c.Args = make([]*PExpr, len(e.Args))
		for i, a := range e.Args {
			c.Args[i] = a.Rewrite(fn)
		}
	}
	return fn(&c)
}

// exprFields is PExpr's tagged fields without its methods, so the
// marshallers below can hand the struct to encoding/xml without
// recursing into themselves.
type exprFields PExpr

// exprDoc is the <expr> element: the tagged fields plus the constant,
// which tags cannot express — a types.Object travels as its kind name
// and the base64 of its wire payload.
type exprDoc struct {
	exprFields
	ConstKind string `xml:"const-kind,attr,omitempty"`
	ConstData string `xml:"const-data,attr,omitempty"`
}

// MarshalXML implements xml.Marshaler.
func (e *PExpr) MarshalXML(enc *xml.Encoder, start xml.StartElement) error {
	doc := exprDoc{exprFields: exprFields(*e)}
	if e.Kind == ExprConst {
		doc.ConstKind = e.Const.Kind().String()
		doc.ConstData = base64.StdEncoding.EncodeToString(e.Const.AppendTo(nil))
	}
	return enc.EncodeElement(doc, start)
}

// UnmarshalXML implements xml.Unmarshaler. It refuses an expression
// without a return kind, of an unknown node kind, or whose constant
// does not decode.
func (e *PExpr) UnmarshalXML(dec *xml.Decoder, start xml.StartElement) error {
	if err := types.RequireAttr(start, "ret"); err != nil {
		return err
	}
	var doc exprDoc
	if err := dec.DecodeElement(&doc, &start); err != nil {
		return err
	}
	*e = PExpr(doc.exprFields)
	switch e.Kind {
	case ExprCol, ExprCall, ExprBinop, ExprUnary:
	case ExprConst:
		var ck types.Kind
		if err := ck.UnmarshalText([]byte(doc.ConstKind)); err != nil {
			return fmt.Errorf("core: const: %w", err)
		}
		data, err := base64.StdEncoding.DecodeString(doc.ConstData)
		if err != nil {
			return fmt.Errorf("core: const payload: %w", err)
		}
		if e.Const, err = types.FromPayload(ck, data); err != nil {
			return fmt.Errorf("core: const payload: %w", err)
		}
	default:
		return fmt.Errorf("core: unknown expr kind %q", e.Kind)
	}
	return nil
}
