package core

import (
	"fmt"

	"mocha/internal/types"
)

// OpBinder resolves operator names to executable implementations. The QPC
// binds against its native library; a DAP binds against the MVM programs
// it received via code shipping. This is the seam that makes the same
// plan fragment executable on both kinds of sites.
type OpBinder interface {
	// BindScalar returns a callable for the named scalar operator
	// returning values of kind ret.
	BindScalar(name string, ret types.Kind) (ScalarFn, error)
	// BindAggregate returns a fresh aggregate instance for the named
	// aggregate operator returning values of kind ret.
	BindAggregate(name string, ret types.Kind) (AggFn, error)
}

// ScalarFn evaluates a scalar operator on one tuple's argument values.
type ScalarFn func(args []types.Object) (types.Object, error)

// AggFn is an aggregate instance following the Reset/Update/Summarize
// protocol of section 3.8.
type AggFn interface {
	Reset() error
	Update(args []types.Object) error
	Summarize() (types.Object, error)
}

// EvalFn is a compiled expression: it maps an input tuple to a value.
type EvalFn func(t types.Tuple) (types.Object, error)

// CompileExpr compiles a plan expression against an operator binder. The
// expression's column references index the tuples later passed to the
// returned EvalFn.
func CompileExpr(e *PExpr, b OpBinder) (EvalFn, error) {
	switch e.Kind {
	case ExprCol:
		col := e.Col
		return func(t types.Tuple) (types.Object, error) {
			if col < 0 || col >= len(t) {
				return nil, fmt.Errorf("core: column %d out of range for %d-tuple", col, len(t))
			}
			return t[col], nil
		}, nil

	case ExprConst:
		v := e.Const
		return func(types.Tuple) (types.Object, error) { return v, nil }, nil

	case ExprCall:
		fn, err := b.BindScalar(e.Func, e.Ret)
		if err != nil {
			return nil, err
		}
		args, err := compileArgs(e.Args, b)
		if err != nil {
			return nil, err
		}
		return func(t types.Tuple) (types.Object, error) {
			vals := make([]types.Object, len(args))
			for i, a := range args {
				v, err := a(t)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			return fn(vals)
		}, nil

	case ExprBinop:
		if len(e.Args) != 2 {
			return nil, fmt.Errorf("core: binop %q needs 2 args", e.Op)
		}
		args, err := compileArgs(e.Args, b)
		if err != nil {
			return nil, err
		}
		op := e.Op
		return func(t types.Tuple) (types.Object, error) {
			l, err := args[0](t)
			if err != nil {
				return nil, err
			}
			// Short-circuit logic operators.
			if op == "AND" || op == "OR" {
				lb, ok := l.(types.Bool)
				if !ok {
					return nil, fmt.Errorf("core: %s on non-boolean %v", op, l.Kind())
				}
				if (op == "AND" && !bool(lb)) || (op == "OR" && bool(lb)) {
					return lb, nil
				}
				r, err := args[1](t)
				if err != nil {
					return nil, err
				}
				rb, ok := r.(types.Bool)
				if !ok {
					return nil, fmt.Errorf("core: %s on non-boolean %v", op, r.Kind())
				}
				return rb, nil
			}
			r, err := args[1](t)
			if err != nil {
				return nil, err
			}
			return applyBinop(op, l, r)
		}, nil

	case ExprUnary:
		if len(e.Args) != 1 {
			return nil, fmt.Errorf("core: unary %q needs 1 arg", e.Op)
		}
		arg, err := CompileExpr(e.Args[0], b)
		if err != nil {
			return nil, err
		}
		op := e.Op
		return func(t types.Tuple) (types.Object, error) {
			v, err := arg(t)
			if err != nil {
				return nil, err
			}
			switch op {
			case "NOT":
				bv, ok := v.(types.Bool)
				if !ok {
					return nil, fmt.Errorf("core: NOT on %v", v.Kind())
				}
				return types.Bool(!bool(bv)), nil
			case "-":
				switch n := v.(type) {
				case types.Int:
					return types.Int(-n), nil
				case types.Double:
					return types.Double(-n), nil
				}
				return nil, fmt.Errorf("core: negation of %v", v.Kind())
			case "F64":
				// Implicit numeric promotion inserted by the binder.
				f, err := asDouble(v)
				if err != nil {
					return nil, err
				}
				return types.Double(f), nil
			}
			return nil, fmt.Errorf("core: unknown unary op %q", op)
		}, nil
	}
	return nil, fmt.Errorf("core: cannot compile expr kind %q", e.Kind)
}

func compileArgs(exprs []*PExpr, b OpBinder) ([]EvalFn, error) {
	out := make([]EvalFn, len(exprs))
	for i, e := range exprs {
		fn, err := CompileExpr(e, b)
		if err != nil {
			return nil, err
		}
		out[i] = fn
	}
	return out, nil
}

// applyBinop evaluates arithmetic and comparison operators with Int →
// Double promotion.
func applyBinop(op string, l, r types.Object) (types.Object, error) {
	switch op {
	case "+", "-", "*", "/", "%":
		li, lIsInt := l.(types.Int)
		ri, rIsInt := r.(types.Int)
		if lIsInt && rIsInt {
			switch op {
			case "+":
				return types.Int(li + ri), nil
			case "-":
				return types.Int(li - ri), nil
			case "*":
				return types.Int(li * ri), nil
			case "/":
				if ri == 0 {
					return nil, fmt.Errorf("core: integer division by zero")
				}
				return types.Int(li / ri), nil
			case "%":
				if ri == 0 {
					return nil, fmt.Errorf("core: integer modulo by zero")
				}
				return types.Int(li % ri), nil
			}
		}
		lf, err := asDouble(l)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", op, err)
		}
		rf, err := asDouble(r)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", op, err)
		}
		switch op {
		case "+":
			return types.Double(lf + rf), nil
		case "-":
			return types.Double(lf - rf), nil
		case "*":
			return types.Double(lf * rf), nil
		case "/":
			return types.Double(lf / rf), nil
		case "%":
			return nil, fmt.Errorf("core: %% on non-integers")
		}

	case "=", "<>", "<", "<=", ">", ">=":
		c, err := compareObjects(l, r)
		if err != nil {
			return nil, err
		}
		switch op {
		case "=":
			return types.Bool(c == 0), nil
		case "<>":
			return types.Bool(c != 0), nil
		case "<":
			return types.Bool(c < 0), nil
		case "<=":
			return types.Bool(c <= 0), nil
		case ">":
			return types.Bool(c > 0), nil
		case ">=":
			return types.Bool(c >= 0), nil
		}
	}
	return nil, fmt.Errorf("core: unknown binop %q", op)
}

func asDouble(o types.Object) (float64, error) {
	switch v := o.(type) {
	case types.Int:
		return float64(v), nil
	case types.Double:
		return float64(v), nil
	}
	return 0, fmt.Errorf("value of kind %v is not numeric", o.Kind())
}

// compareObjects orders two small objects, promoting Int to Double when
// kinds differ numerically.
func compareObjects(l, r types.Object) (int, error) {
	if l.Kind() != r.Kind() {
		lf, lerr := asDouble(l)
		rf, rerr := asDouble(r)
		if lerr != nil || rerr != nil {
			return 0, fmt.Errorf("core: cannot compare %v with %v", l.Kind(), r.Kind())
		}
		switch {
		case lf < rf:
			return -1, nil
		case lf > rf:
			return 1, nil
		}
		return 0, nil
	}
	ls, ok := l.(types.Small)
	if !ok {
		return 0, fmt.Errorf("core: cannot compare large objects of kind %v", l.Kind())
	}
	if ls.Equal(r) {
		return 0, nil
	}
	if ls.Less(r) {
		return -1, nil
	}
	return 1, nil
}

// Memo caches user-defined operator results within one input tuple, so
// an expression like AvgEnergy(image) appearing in both a predicate and
// a projection of the same fragment is evaluated once per tuple. Reset
// must be called when moving to the next tuple. A Memo is not safe for
// concurrent use.
type Memo struct {
	vals  map[memoKey]types.Object
	sites map[string]int32 // operator name → call-site id, assigned as expressions compile
	uses  []int            // call-site id → times bound across the chain's expressions
}

// memoArity is the most arguments a memoized call may have; a longer
// call is evaluated every time.
const memoArity = 4

// memoKey identifies one call: which operator, on which argument values.
// Small values key by content — they are comparable — and large ones by
// identity (payload address and length): within one tuple the same
// column reference always yields the same backing slice, while a fresh
// computation just misses the cache and recomputes, which is still
// correct. It stays within 128 bytes: a Go map allocates every larger
// key it stores.
type memoKey struct {
	site  int32
	n     [memoArity]int32 // with p, a large argument's payload
	p     [memoArity]*byte
	small [memoArity]types.Object
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{vals: make(map[memoKey]types.Object), sites: make(map[string]int32)}
}

// Reset clears the memo for the next tuple.
func (m *Memo) Reset() { clear(m.vals) }

// CompileExprMemo compiles like CompileExpr but wraps every operator
// call in a per-tuple cache lookup keyed by the call's canonical form.
func CompileExprMemo(e *PExpr, b OpBinder, memo *Memo) (EvalFn, error) {
	if memo == nil {
		return CompileExpr(e, b)
	}
	return CompileExpr(e, memoBinder{b: b, memo: memo})
}

// memoBinder intercepts scalar binding to add caching. Aggregates are
// stateful and never memoized.
type memoBinder struct {
	b    OpBinder
	memo *Memo
}

func (mb memoBinder) BindScalar(name string, ret types.Kind) (ScalarFn, error) {
	fn, err := mb.b.BindScalar(name, ret)
	if err != nil {
		return nil, err
	}
	memo := mb.memo
	site, ok := memo.sites[name]
	if !ok {
		site = int32(len(memo.uses))
		memo.sites[name] = site
		memo.uses = append(memo.uses, 0)
	}
	memo.uses[site]++
	return func(args []types.Object) (types.Object, error) {
		// An operator bound once in the whole chain has no second call
		// in the tuple to share a result with.
		if memo.uses[site] < 2 || len(args) > memoArity {
			return fn(args)
		}
		key := memoKey{site: site}
		for i, a := range args {
			if lg, ok := a.(types.Large); ok {
				if p := lg.Payload(); len(p) > 0 {
					key.p[i], key.n[i] = &p[0], int32(len(p))
				}
			} else {
				key.small[i] = a
			}
		}
		if v, ok := memo.vals[key]; ok {
			return v, nil
		}
		v, err := fn(args)
		if err != nil {
			return nil, err
		}
		memo.vals[key] = v
		return v, nil
	}, nil
}

func (mb memoBinder) BindAggregate(name string, ret types.Kind) (AggFn, error) {
	return mb.b.BindAggregate(name, ret)
}

// EvalPredicate runs a compiled boolean expression on a tuple.
func EvalPredicate(fn EvalFn, t types.Tuple) (bool, error) {
	v, err := fn(t)
	if err != nil {
		return false, err
	}
	b, ok := v.(types.Bool)
	if !ok {
		return false, fmt.Errorf("core: predicate produced %v, want BOOL", v.Kind())
	}
	return bool(b), nil
}
