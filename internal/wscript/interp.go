package wscript

import (
	"fmt"
	"math"

	"wishbone/internal/cost"
)

// interp evaluates wscript code at compile time: it partially evaluates
// the program (graph wiring, loops, arithmetic — all executed; `iterate`
// allocates operators). Shipped iterate bodies run as wvm bytecode
// (buildVMIterate); only the tree-walking oracle in tree_test.go runs them
// in this interpreter, counting primitive operations into counter.
type interp struct {
	// counter records run-time operation costs; nil during compile-time
	// evaluation (partial evaluation is free — it happens in the compiler).
	counter *cost.Counter
	// emit is the active emit target inside an operator body.
	emit func(value)
	// elab is the graph-building context; nil at run time (operators may
	// not be created inside work functions).
	elab *elaborator
	// depth guards against runaway recursion in user programs.
	depth int
}

const maxDepth = 500

// runtimeError aborts interpretation; it is recovered at the work-function
// boundary (compile-time errors propagate as returned errors).
type runtimeError struct{ err error }

// Error implements error so a panicking work function prints the wscript
// source location and message rather than an opaque struct.
func (r runtimeError) Error() string { return r.err.Error() }

// String mirrors Error for %v formatting in panic output.
func (r runtimeError) String() string { return r.err.Error() }

// Unwrap exposes the underlying error so typed metering errors
// (wvm.ErrFuelExhausted, wvm.ErrMemLimit) survive the panic/recover trip
// through the engine and can be mapped to API status codes.
func (r runtimeError) Unwrap() error { return r.err }

func (ip *interp) failf(n Node, format string, args ...any) error {
	return fmt.Errorf("wscript:%d: %s", n.nodeLine(), fmt.Sprintf(format, args...))
}

// spend charges units of the program's elaboration budget (elabBudget).
// At run time there is no elaborator and nothing to charge: work
// functions are metered by wvm.Limits.
func (ip *interp) spend(n Node, units int64) error {
	if ip.elab == nil {
		return nil
	}
	return ip.elab.spend(n.nodeLine(), units)
}

// returnSignal unwinds a `return` statement to the function boundary.
type returnSignal struct{ v value }

// evalBlock runs the statements; the block's value is the value of its
// final expression statement (unit otherwise).
func (ip *interp) evalBlock(b *Block, e *env) (value, error) {
	var last value = unitVal{}
	for i, s := range b.Stmts {
		v, err := ip.evalStmt(s, e)
		if err != nil {
			return nil, err
		}
		if i == len(b.Stmts)-1 {
			last = v
		}
	}
	return last, nil
}

func (ip *interp) evalStmt(s Stmt, e *env) (value, error) {
	switch st := s.(type) {
	case *LetStmt:
		v, err := ip.evalExpr(st.Expr, e)
		if err != nil {
			return nil, err
		}
		ip.count(cost.Store, 1)
		e.set(st.Name, v)
		return unitVal{}, nil

	case *AssignOpStmt:
		cur, ok := e.lookup(st.Name)
		if !ok {
			return nil, ip.failf(st, "undefined variable %q", st.Name)
		}
		rhs, err := ip.evalExpr(st.Expr, e)
		if err != nil {
			return nil, err
		}
		v, err := ip.binop(st, st.Op, cur, rhs)
		if err != nil {
			return nil, err
		}
		ip.count(cost.Store, 1)
		e.set(st.Name, v)
		return unitVal{}, nil

	case *IndexAssignStmt:
		av, ok := e.lookup(st.Name)
		if !ok {
			return nil, ip.failf(st, "undefined variable %q", st.Name)
		}
		arr, ok := av.(*arrayVal)
		if !ok {
			return nil, ip.failf(st, "%q is %s, not array", st.Name, typeName(av))
		}
		idxV, err := ip.evalExpr(st.Index, e)
		if err != nil {
			return nil, err
		}
		idx, ok := idxV.(int64)
		if !ok {
			return nil, ip.failf(st, "array index must be int, got %s", typeName(idxV))
		}
		if idx < 0 || int(idx) >= len(arr.elems) {
			return nil, ip.failf(st, "index %d out of bounds (len %d)", idx, len(arr.elems))
		}
		v, err := ip.evalExpr(st.Expr, e)
		if err != nil {
			return nil, err
		}
		arr.elems[idx] = v
		ip.count(cost.Store, 1)
		ip.count(cost.IntOp, 1)
		return unitVal{}, nil

	case *ExprStmt:
		return ip.evalExpr(st.Expr, e)

	case *IfStmt:
		c, err := ip.evalExpr(st.Cond, e)
		if err != nil {
			return nil, err
		}
		ip.count(cost.Branch, 1)
		b, ok := c.(bool)
		if !ok {
			return nil, ip.failf(st, "if condition is %s, not bool", typeName(c))
		}
		if b {
			return ip.evalBlock(st.Then, newEnv(e))
		}
		if st.Else != nil {
			return ip.evalBlock(st.Else, newEnv(e))
		}
		return unitVal{}, nil

	case *ForStmt:
		loV, err := ip.evalExpr(st.Lo, e)
		if err != nil {
			return nil, err
		}
		hiV, err := ip.evalExpr(st.Hi, e)
		if err != nil {
			return nil, err
		}
		lo, ok1 := loV.(int64)
		hi, ok2 := hiV.(int64)
		if !ok1 || !ok2 {
			return nil, ip.failf(st, "for bounds must be ints")
		}
		inner := newEnv(e)
		for i := lo; i <= hi; i++ {
			if err := ip.spend(st, 1); err != nil {
				return nil, err
			}
			inner.define(st.Var, i)
			ip.count(cost.Branch, 1)
			ip.count(cost.IntOp, 1)
			if _, err := ip.evalBlock(st.Body, inner); err != nil {
				return nil, err
			}
		}
		return unitVal{}, nil

	case *WhileStmt:
		inner := newEnv(e)
		for iter := 0; ; iter++ {
			if iter > 10_000_000 {
				return nil, ip.failf(st, "while loop exceeded 10M iterations")
			}
			if err := ip.spend(st, 1); err != nil {
				return nil, err
			}
			c, err := ip.evalExpr(st.Cond, inner)
			if err != nil {
				return nil, err
			}
			ip.count(cost.Branch, 1)
			b, ok := c.(bool)
			if !ok {
				return nil, ip.failf(st, "while condition is %s, not bool", typeName(c))
			}
			if !b {
				return unitVal{}, nil
			}
			if _, err := ip.evalBlock(st.Body, inner); err != nil {
				return nil, err
			}
		}

	case *EmitStmt:
		if ip.emit == nil {
			return nil, ip.failf(st, "emit outside an iterate body")
		}
		v, err := ip.evalExpr(st.Expr, e)
		if err != nil {
			return nil, err
		}
		ip.count(cost.Call, 1)
		ip.emit(v)
		return unitVal{}, nil

	case *ReturnStmt:
		v, err := ip.evalExpr(st.Expr, e)
		if err != nil {
			return nil, err
		}
		panic(returnSignal{v})

	default:
		return nil, ip.failf(s, "unknown statement %T", s)
	}
}

func (ip *interp) count(op cost.Op, n int) { ip.counter.Add(op, n) }

func (ip *interp) evalExpr(x Expr, e *env) (value, error) {
	switch ex := x.(type) {
	case *IntLit:
		return ex.Value, nil
	case *FloatLit:
		return ex.Value, nil
	case *StringLit:
		return ex.Value, nil
	case *BoolLit:
		return ex.Value, nil

	case *Ident:
		v, ok := e.lookup(ex.Name)
		if !ok {
			return nil, ip.failf(ex, "undefined variable %q", ex.Name)
		}
		ip.count(cost.Load, 1)
		return v, nil

	case *ArrayLit:
		if err := ip.spend(ex, int64(len(ex.Elems))); err != nil {
			return nil, err
		}
		arr := &arrayVal{elems: make([]value, len(ex.Elems))}
		for i, el := range ex.Elems {
			v, err := ip.evalExpr(el, e)
			if err != nil {
				return nil, err
			}
			arr.elems[i] = v
		}
		ip.count(cost.Store, len(ex.Elems))
		return arr, nil

	case *IndexExpr:
		av, err := ip.evalExpr(ex.Arr, e)
		if err != nil {
			return nil, err
		}
		arr, ok := av.(*arrayVal)
		if !ok {
			return nil, ip.failf(ex, "indexing %s, not array", typeName(av))
		}
		idxV, err := ip.evalExpr(ex.Index, e)
		if err != nil {
			return nil, err
		}
		idx, ok := idxV.(int64)
		if !ok {
			return nil, ip.failf(ex, "array index must be int")
		}
		if idx < 0 || int(idx) >= len(arr.elems) {
			return nil, ip.failf(ex, "index %d out of bounds (len %d)", idx, len(arr.elems))
		}
		ip.count(cost.Load, 1)
		ip.count(cost.IntOp, 1)
		return arr.elems[idx], nil

	case *UnExpr:
		v, err := ip.evalExpr(ex.X, e)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "-":
			switch n := v.(type) {
			case int64:
				ip.count(cost.IntOp, 1)
				return -n, nil
			case float64:
				ip.count(cost.FloatAdd, 1)
				return -n, nil
			}
			return nil, ip.failf(ex, "negating %s", typeName(v))
		case "!":
			b, ok := v.(bool)
			if !ok {
				return nil, ip.failf(ex, "! of %s", typeName(v))
			}
			ip.count(cost.IntOp, 1)
			return !b, nil
		}
		return nil, ip.failf(ex, "unknown unary %q", ex.Op)

	case *BinExpr:
		// Short-circuit logical operators.
		if ex.Op == "&&" || ex.Op == "||" {
			l, err := ip.evalExpr(ex.L, e)
			if err != nil {
				return nil, err
			}
			lb, ok := l.(bool)
			if !ok {
				return nil, ip.failf(ex, "%q of %s", ex.Op, typeName(l))
			}
			ip.count(cost.Branch, 1)
			if ex.Op == "&&" && !lb {
				return false, nil
			}
			if ex.Op == "||" && lb {
				return true, nil
			}
			r, err := ip.evalExpr(ex.R, e)
			if err != nil {
				return nil, err
			}
			rb, ok := r.(bool)
			if !ok {
				return nil, ip.failf(ex, "%q of %s", ex.Op, typeName(r))
			}
			return rb, nil
		}
		l, err := ip.evalExpr(ex.L, e)
		if err != nil {
			return nil, err
		}
		r, err := ip.evalExpr(ex.R, e)
		if err != nil {
			return nil, err
		}
		return ip.binop(ex, ex.Op, l, r)

	case *CallExpr:
		return ip.evalCall(ex, e)

	case *IterateExpr:
		if ip.elab == nil {
			return nil, ip.failf(ex, "iterate inside an operator body (operators cannot be created at run time)")
		}
		return ip.elab.makeIterate(ex, e)

	case *ZipExpr:
		if ip.elab == nil {
			return nil, ip.failf(ex, "zip inside an operator body")
		}
		return ip.elab.makeZip(ex, e)

	default:
		return nil, ip.failf(x, "unknown expression %T", x)
	}
}

// binop applies an arithmetic/comparison operator with numeric promotion.
func (ip *interp) binop(n Node, op string, l, r value) (value, error) {
	// Numeric promotion: int op float → float.
	if lf, ok := l.(float64); ok {
		if ri, ok := r.(int64); ok {
			r = float64(ri)
		}
		_ = lf
	} else if li, ok := l.(int64); ok {
		if _, ok := r.(float64); ok {
			l = float64(li)
		}
	}

	switch lv := l.(type) {
	case int64:
		rv, ok := r.(int64)
		if !ok {
			return nil, ip.failf(n, "int %s %s", op, typeName(r))
		}
		switch op {
		case "+":
			ip.count(cost.IntOp, 1)
			return lv + rv, nil
		case "-":
			ip.count(cost.IntOp, 1)
			return lv - rv, nil
		case "*":
			ip.count(cost.IntMul, 1)
			return lv * rv, nil
		case "/":
			if rv == 0 {
				return nil, ip.failf(n, "integer division by zero")
			}
			ip.count(cost.IntDiv, 1)
			return lv / rv, nil
		case "%":
			if rv == 0 {
				return nil, ip.failf(n, "modulo by zero")
			}
			ip.count(cost.IntDiv, 1)
			return lv % rv, nil
		case "==", "!=", "<", ">", "<=", ">=":
			ip.count(cost.IntOp, 1)
			return compareInts(op, lv, rv), nil
		}

	case float64:
		rv, ok := r.(float64)
		if !ok {
			return nil, ip.failf(n, "float %s %s", op, typeName(r))
		}
		switch op {
		case "+":
			ip.count(cost.FloatAdd, 1)
			return lv + rv, nil
		case "-":
			ip.count(cost.FloatAdd, 1)
			return lv - rv, nil
		case "*":
			ip.count(cost.FloatMul, 1)
			return lv * rv, nil
		case "/":
			ip.count(cost.FloatDiv, 1)
			return lv / rv, nil
		case "==", "!=", "<", ">", "<=", ">=":
			ip.count(cost.FloatAdd, 1)
			return compareFloats(op, lv, rv), nil
		}

	case bool:
		rv, ok := r.(bool)
		if ok && (op == "==" || op == "!=") {
			ip.count(cost.IntOp, 1)
			return (lv == rv) == (op == "=="), nil
		}

	case string:
		rv, ok := r.(string)
		if ok {
			switch op {
			case "+":
				if err := ip.spend(n, int64(len(lv)+len(rv))); err != nil {
					return nil, err
				}
				return lv + rv, nil
			case "==", "!=":
				return (lv == rv) == (op == "=="), nil
			}
		}
	}
	return nil, ip.failf(n, "cannot apply %q to %s and %s", op, typeName(l), typeName(r))
}

func compareInts(op string, a, b int64) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case ">":
		return a > b
	case "<=":
		return a <= b
	default:
		return a >= b
	}
}

func compareFloats(op string, a, b float64) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case ">":
		return a > b
	case "<=":
		return a <= b
	default:
		return a >= b
	}
}

// evalCall dispatches builtins and user functions.
func (ip *interp) evalCall(ex *CallExpr, e *env) (value, error) {
	args := make([]value, len(ex.Args))
	for i, a := range ex.Args {
		v, err := ip.evalExpr(a, e)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	if fn, ok := builtins[ex.Fn]; ok {
		ip.count(cost.Call, 1)
		return fn(ip, ex, args)
	}
	// Compile-time graph builtins (source) need the elaborator.
	if ex.Fn == "source" {
		if ip.elab == nil {
			return nil, ip.failf(ex, "source inside an operator body")
		}
		return ip.elab.makeSource(ex, args)
	}

	fv, ok := e.lookup(ex.Fn)
	if !ok {
		return nil, ip.failf(ex, "undefined function %q", ex.Fn)
	}
	f, ok := fv.(*funcVal)
	if !ok {
		return nil, ip.failf(ex, "%q is %s, not a function", ex.Fn, typeName(fv))
	}
	if len(args) != len(f.decl.Params) {
		return nil, ip.failf(ex, "%s expects %d args, got %d", ex.Fn, len(f.decl.Params), len(args))
	}
	if ip.depth >= maxDepth {
		return nil, ip.failf(ex, "call depth exceeded (%d)", maxDepth)
	}
	if err := ip.spend(ex, 1); err != nil {
		return nil, err
	}
	ip.depth++
	defer func() { ip.depth-- }()
	ip.count(cost.Call, 1)

	inner := newEnv(f.env)
	for i, p := range f.decl.Params {
		inner.define(p, args[i])
	}
	var out value
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if rs, ok := r.(returnSignal); ok {
					out = rs.v
					return
				}
				panic(r)
			}
		}()
		out, err = ip.evalBlock(f.decl.Body, inner)
	}()
	return out, err
}

// builtinFn is a native function.
type builtinFn func(ip *interp, ex *CallExpr, args []value) (value, error)

// builtins are the native library. Math functions charge their platform
// cost class; Array operations charge memory traffic.
var builtins = map[string]builtinFn{
	"Array.make": func(ip *interp, ex *CallExpr, args []value) (value, error) {
		if len(args) != 2 {
			return nil, ip.failf(ex, "Array.make(n, init)")
		}
		n, ok := args[0].(int64)
		if !ok || n < 0 {
			return nil, ip.failf(ex, "Array.make size must be a non-negative int")
		}
		if err := ip.spend(ex, n); err != nil {
			return nil, err
		}
		arr := &arrayVal{elems: make([]value, n)}
		for i := range arr.elems {
			arr.elems[i] = args[1]
		}
		ip.count(cost.Store, int(n))
		return arr, nil
	},
	"Array.length": func(ip *interp, ex *CallExpr, args []value) (value, error) {
		arr, ok := args[0].(*arrayVal)
		if !ok {
			return nil, ip.failf(ex, "Array.length of %s", typeName(args[0]))
		}
		ip.count(cost.Load, 1)
		return int64(len(arr.elems)), nil
	},
	"Array.append": func(ip *interp, ex *CallExpr, args []value) (value, error) {
		arr, ok := args[0].(*arrayVal)
		if !ok {
			return nil, ip.failf(ex, "Array.append to %s", typeName(args[0]))
		}
		if err := ip.spend(ex, 1); err != nil {
			return nil, err
		}
		arr.elems = append(arr.elems, args[1])
		ip.count(cost.Store, 1)
		return arr, nil
	},
	"Math.sqrt":  math1(cost.Sqrt, math.Sqrt),
	"Math.sin":   math1(cost.Trig, math.Sin),
	"Math.cos":   math1(cost.Trig, math.Cos),
	"Math.log":   math1(cost.Log, math.Log),
	"Math.exp":   math1(cost.Log, math.Exp),
	"Math.abs":   math1(cost.FloatAdd, math.Abs),
	"Math.floor": math1(cost.FloatAdd, math.Floor),
	"intToFloat": func(ip *interp, ex *CallExpr, args []value) (value, error) {
		n, ok := args[0].(int64)
		if !ok {
			return nil, ip.failf(ex, "intToFloat of %s", typeName(args[0]))
		}
		ip.count(cost.IntOp, 1)
		return float64(n), nil
	},
	"floatToInt": func(ip *interp, ex *CallExpr, args []value) (value, error) {
		f, ok := args[0].(float64)
		if !ok {
			return nil, ip.failf(ex, "floatToInt of %s", typeName(args[0]))
		}
		ip.count(cost.FloatAdd, 1)
		return int64(f), nil
	},
}

func math1(class cost.Op, f func(float64) float64) builtinFn {
	return func(ip *interp, ex *CallExpr, args []value) (value, error) {
		if len(args) != 1 {
			return nil, ip.failf(ex, "%s takes one argument", ex.Fn)
		}
		var x float64
		switch v := args[0].(type) {
		case float64:
			x = v
		case int64:
			x = float64(v)
		default:
			return nil, ip.failf(ex, "%s of %s", ex.Fn, typeName(args[0]))
		}
		ip.count(class, 1)
		return f(x), nil
	}
}
