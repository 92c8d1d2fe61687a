package wscript

import (
	"fmt"

	"wishbone/internal/wvm"
)

// This file lowers iterate bodies to wvm bytecode. The tree-walking
// interpreter stays as the reference engine; the compiler replicates its
// cost-counter charges instruction by instruction so both engines produce
// byte-identical profiles and outputs.
//
// The compiler resolves names statically: locals to frame slots, state
// variables to state slots, and captured compile-time values to constant or
// template pool entries. That makes a handful of programs compile errors
// that the tree-walker only rejects (or tolerates) at run time:
//
//   - assigning to a variable captured from the elaboration environment
//     (the tree-walker would mutate shared compile-time state);
//   - reading a variable before any lexically earlier write, even when a
//     prior loop iteration would have defined it at run time;
//   - using a function or stream as a plain value;
//   - `return` outside a function body;
//   - calling a user function with the wrong argument count.
//
// Captured mutable values (arrays, fifos) become templates: each work
// invocation materializes a private copy, so elements never observe each
// other's mutations through a captured structure.

// vmCompiler compiles one operator body (entry + state initializers +
// reachable user functions) into a wvm.Program.
type vmCompiler struct {
	el       *elaborator // charged for every captured element copied
	prog     *wvm.Program
	constIdx map[wvm.Value]int32
	tmplIdx  map[value]int32
	funcIdx  map[*FunDecl]int32
}

// compileIterateVM lowers an iterate operator to bytecode. defEnv is the
// elaboration-time environment the body closes over.
func compileIterateVM(name, varName string, stateDecls []*LetStmt, body *Block, defEnv *env, el *elaborator) (*wvm.Program, error) {
	c := &vmCompiler{
		el:       el,
		prog:     &wvm.Program{Name: name, Init: -1},
		constIdx: make(map[wvm.Value]int32),
		tmplIdx:  make(map[value]int32),
		funcIdx:  make(map[*FunDecl]int32),
	}
	c.prog.NumState = len(stateDecls)
	states := make(map[string]int32)

	if len(stateDecls) > 0 {
		fc := c.newFn("state-init", 0, defEnv)
		fc.states = states
		for k, d := range stateDecls {
			if err := fc.expr(d.Expr); err != nil {
				return nil, err
			}
			fc.emit(wvm.OpStoreSN, int32(k), 0, ln(d))
			states[d.Name] = int32(k)
		}
		fc.emit(wvm.OpUnit, 0, 0, ln(body))
		fc.emit(wvm.OpRet, 0, 0, ln(body))
		c.prog.Init = int(fc.finish())
	}

	fe := c.newFn("entry", 1, defEnv)
	fe.states = states
	fe.pushScope()
	fe.scopes[0][varName] = 0
	if err := fe.block(body, false); err != nil {
		return nil, err
	}
	fe.emit(wvm.OpUnit, 0, 0, ln(body))
	fe.emit(wvm.OpRet, 0, 0, ln(body))
	c.prog.Entry = int(fe.finish())

	if err := c.prog.Verify(); err != nil {
		return nil, fmt.Errorf("wscript: internal compiler error: %v", err)
	}
	return c.prog, nil
}

func ln(n Node) int32 { return int32(n.nodeLine()) }

func (c *vmCompiler) constOf(v wvm.Value) int32 {
	if i, ok := c.constIdx[v]; ok {
		return i
	}
	i := int32(len(c.prog.Consts))
	c.prog.Consts = append(c.prog.Consts, v)
	c.constIdx[v] = i
	return i
}

// templateOf interns a captured mutable value, keyed by identity so shared
// structures convert once.
func (c *vmCompiler) templateOf(v value, line int32) (int32, error) {
	if i, ok := c.tmplIdx[v]; ok {
		return i, nil
	}
	conv, err := c.captureValue(v, line, 0)
	if err != nil {
		return 0, err
	}
	i := int32(len(c.prog.Templates))
	c.prog.Templates = append(c.prog.Templates, conv)
	c.tmplIdx[v] = i
	return i, nil
}

// captureValue converts an elaboration-time value for the VM pools. The
// copy is charged to the elaboration budget element by element — a
// structure that shares substructure unfolds into a tree here — and
// nesting is bounded, so one that contains itself is an error.
func (c *vmCompiler) captureValue(v value, line int32, depth int) (wvm.Value, error) {
	var src []value
	switch x := v.(type) {
	case int64, float64, bool, string:
		return x, nil
	case unitVal:
		return wvm.Unit{}, nil
	case *arrayVal:
		src = x.elems
	case *fifoVal:
		src = x.elems
	default:
		return nil, fmt.Errorf("wscript:%d: cannot capture %s in an operator body", line, typeName(v))
	}
	if depth >= maxDepth {
		return nil, fmt.Errorf("wscript:%d: captured value nests deeper than %d", line, maxDepth)
	}
	if err := c.el.spend(int(line), int64(len(src))); err != nil {
		return nil, err
	}
	out := make([]wvm.Value, len(src))
	for i, e := range src {
		cv, err := c.captureValue(e, line, depth+1)
		if err != nil {
			return nil, err
		}
		out[i] = cv
	}
	if _, ok := v.(*fifoVal); ok {
		return &wvm.Fifo{Elems: out}, nil
	}
	return &wvm.Array{Elems: out}, nil
}

func (c *vmCompiler) newFn(name string, numParams int, defEnv *env) *fnCompiler {
	fi := int32(len(c.prog.Funcs))
	c.prog.Funcs = append(c.prog.Funcs, wvm.Func{Name: name, NumParams: numParams})
	return &fnCompiler{c: c, fi: fi, defEnv: defEnv, nextSlot: int32(numParams)}
}

// compileFunc compiles a user function on first use, memoized by
// declaration so recursion and sharing work.
func (c *vmCompiler) compileFunc(fv *funcVal) (int32, error) {
	if fi, ok := c.funcIdx[fv.decl]; ok {
		return fi, nil
	}
	fc := c.newFn(fv.decl.Name, len(fv.decl.Params), fv.env)
	c.funcIdx[fv.decl] = fc.fi // registered before the body: recursion resolves
	fc.inFunc = true
	fc.pushScope()
	for i, p := range fv.decl.Params {
		fc.scopes[0][p] = int32(i)
	}
	if err := fc.block(fv.decl.Body, true); err != nil {
		return 0, err
	}
	fc.emit(wvm.OpRet, 0, 0, ln(fv.decl))
	fc.finish()
	return fc.fi, nil
}

// fnCompiler compiles one function body.
type fnCompiler struct {
	c        *vmCompiler
	fi       int32
	code     []wvm.Instr
	lines    []int32
	scopes   []map[string]int32
	nextSlot int32
	nWhiles  int32
	defEnv   *env
	states   map[string]int32 // nil inside user functions (no state access)
	inFunc   bool             // `return` allowed
}

func (f *fnCompiler) finish() int32 {
	fn := &f.c.prog.Funcs[f.fi]
	fn.NumLocals = int(f.nextSlot)
	fn.NumWhiles = int(f.nWhiles)
	fn.Code = f.code
	fn.Lines = f.lines
	return f.fi
}

func (f *fnCompiler) emit(op wvm.Opcode, a, b, line int32) int {
	f.code = append(f.code, wvm.Instr{Op: op, A: a, B: b})
	f.lines = append(f.lines, line)
	return len(f.code) - 1
}

func (f *fnCompiler) patch(at int) { f.code[at].A = int32(len(f.code)) }

func (f *fnCompiler) pushScope() { f.scopes = append(f.scopes, make(map[string]int32)) }
func (f *fnCompiler) popScope()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *fnCompiler) lookupLocal(name string) (int32, bool) {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if s, ok := f.scopes[i][name]; ok {
			return s, true
		}
	}
	return 0, false
}

func (f *fnCompiler) alloc(n int32) int32 {
	s := f.nextSlot
	f.nextSlot += n
	return s
}

func (f *fnCompiler) define(name string) int32 {
	s := f.alloc(1)
	f.scopes[len(f.scopes)-1][name] = s
	return s
}

func (f *fnCompiler) failf(n Node, format string, args ...any) error {
	return fmt.Errorf("wscript:%d: %s", n.nodeLine(), fmt.Sprintf(format, args...))
}

// block compiles statements; when wantValue the block leaves its value (the
// last statement's value, unit for an empty block) on the stack.
func (f *fnCompiler) block(b *Block, wantValue bool) error {
	if len(b.Stmts) == 0 {
		if wantValue {
			f.emit(wvm.OpUnit, 0, 0, ln(b))
		}
		return nil
	}
	for i, s := range b.Stmts {
		if err := f.stmt(s, wantValue && i == len(b.Stmts)-1); err != nil {
			return err
		}
	}
	return nil
}

func (f *fnCompiler) stmt(s Stmt, wantValue bool) error {
	switch st := s.(type) {
	case *LetStmt:
		if err := f.expr(st.Expr); err != nil {
			return err
		}
		if slot, ok := f.lookupLocal(st.Name); ok {
			f.emit(wvm.OpStoreL, slot, 0, ln(st))
		} else if slot, ok := f.states[st.Name]; ok {
			f.emit(wvm.OpStoreS, slot, 0, ln(st))
		} else if _, ok := f.defEnv.lookup(st.Name); ok {
			return f.failf(st, "cannot assign to captured variable %q", st.Name)
		} else {
			f.emit(wvm.OpStoreL, f.define(st.Name), 0, ln(st))
		}
		if wantValue {
			f.emit(wvm.OpUnit, 0, 0, ln(st))
		}
		return nil

	case *AssignOpStmt:
		ai := wvm.ArithIndex(st.Op)
		if ai < 0 {
			return f.failf(st, "cannot apply %q in assignment", st.Op)
		}
		var loadOp, storeOp wvm.Opcode
		var slot int32
		if s, ok := f.lookupLocal(st.Name); ok {
			loadOp, storeOp, slot = wvm.OpLoadLN, wvm.OpStoreL, s
		} else if s, ok := f.states[st.Name]; ok {
			loadOp, storeOp, slot = wvm.OpLoadSN, wvm.OpStoreS, s
		} else if _, ok := f.defEnv.lookup(st.Name); ok {
			return f.failf(st, "cannot assign to captured variable %q", st.Name)
		} else {
			return f.failf(st, "undefined variable %q", st.Name)
		}
		f.emit(loadOp, slot, 0, ln(st)) // the tree-walker's lookup is uncharged
		if err := f.expr(st.Expr); err != nil {
			return err
		}
		f.emit(wvm.OpArith, 0, int32(ai), ln(st))
		f.emit(storeOp, slot, 0, ln(st))
		if wantValue {
			f.emit(wvm.OpUnit, 0, 0, ln(st))
		}
		return nil

	case *IndexAssignStmt:
		if slot, ok := f.lookupLocal(st.Name); ok {
			f.emit(wvm.OpLoadLN, slot, 0, ln(st))
		} else if slot, ok := f.states[st.Name]; ok {
			f.emit(wvm.OpLoadSN, slot, 0, ln(st))
		} else if _, ok := f.defEnv.lookup(st.Name); ok {
			return f.failf(st, "cannot assign through captured variable %q", st.Name)
		} else {
			return f.failf(st, "undefined variable %q", st.Name)
		}
		if err := f.expr(st.Index); err != nil {
			return err
		}
		if err := f.expr(st.Expr); err != nil {
			return err
		}
		f.emit(wvm.OpIndexSet, 0, f.c.constOf(st.Name), ln(st))
		if wantValue {
			f.emit(wvm.OpUnit, 0, 0, ln(st))
		}
		return nil

	case *ExprStmt:
		if err := f.expr(st.Expr); err != nil {
			return err
		}
		if !wantValue {
			f.emit(wvm.OpPop, 0, 0, ln(st))
		}
		return nil

	case *IfStmt:
		if err := f.expr(st.Cond); err != nil {
			return err
		}
		jf := f.emit(wvm.OpBranchF, 0, 0, ln(st))
		f.pushScope()
		err := f.block(st.Then, wantValue)
		f.popScope()
		if err != nil {
			return err
		}
		jend := f.emit(wvm.OpJmp, 0, 0, ln(st))
		f.patch(jf)
		if st.Else != nil {
			f.pushScope()
			err := f.block(st.Else, wantValue)
			f.popScope()
			if err != nil {
				return err
			}
		} else if wantValue {
			f.emit(wvm.OpUnit, 0, 0, ln(st))
		}
		f.patch(jend)
		return nil

	case *ForStmt:
		if err := f.expr(st.Lo); err != nil {
			return err
		}
		if err := f.expr(st.Hi); err != nil {
			return err
		}
		// Three consecutive slots: hidden counter, hidden bound, visible
		// loop variable. The counter is separate from the visible variable
		// so body assignments to it cannot change the trip count, matching
		// the tree-walker's private Go loop counter.
		base := f.alloc(3)
		f.emit(wvm.OpForInit, 0, base, ln(st))
		f.pushScope() // one scope shared across iterations, like `inner := newEnv(e)`
		f.scopes[len(f.scopes)-1][st.Var] = base + 2
		head := len(f.code)
		ji := f.emit(wvm.OpForIter, 0, base, ln(st))
		err := f.block(st.Body, false)
		f.popScope()
		if err != nil {
			return err
		}
		f.emit(wvm.OpForStep, int32(head), base, ln(st))
		f.patch(ji)
		if wantValue {
			f.emit(wvm.OpUnit, 0, 0, ln(st))
		}
		return nil

	case *WhileStmt:
		id := f.nWhiles
		f.nWhiles++
		f.emit(wvm.OpWhileInit, id, 0, ln(st))
		f.pushScope() // condition and body share the loop scope
		head := len(f.code)
		f.emit(wvm.OpWhileStep, id, 0, ln(st))
		err := f.expr(st.Cond)
		if err == nil {
			jf := f.emit(wvm.OpBranchF, 0, 1, ln(st))
			if err = f.block(st.Body, false); err == nil {
				f.emit(wvm.OpJmp, int32(head), 0, ln(st))
				f.patch(jf)
			}
		}
		f.popScope()
		if err != nil {
			return err
		}
		if wantValue {
			f.emit(wvm.OpUnit, 0, 0, ln(st))
		}
		return nil

	case *EmitStmt:
		if err := f.expr(st.Expr); err != nil {
			return err
		}
		f.emit(wvm.OpEmit, 0, 0, ln(st))
		if wantValue {
			f.emit(wvm.OpUnit, 0, 0, ln(st))
		}
		return nil

	case *ReturnStmt:
		if !f.inFunc {
			return f.failf(st, "return outside a function")
		}
		if err := f.expr(st.Expr); err != nil {
			return err
		}
		f.emit(wvm.OpRet, 0, 0, ln(st))
		if wantValue {
			// Unreachable, but keeps the stack shape consistent for any
			// fall-through path the verifier explores.
			f.emit(wvm.OpUnit, 0, 0, ln(st))
		}
		return nil

	default:
		return f.failf(s, "unknown statement %T", s)
	}
}

func (f *fnCompiler) expr(x Expr) error {
	switch ex := x.(type) {
	case *IntLit:
		f.emit(wvm.OpConst, f.c.constOf(ex.Value), 0, ln(ex))
		return nil
	case *FloatLit:
		f.emit(wvm.OpConst, f.c.constOf(ex.Value), 0, ln(ex))
		return nil
	case *StringLit:
		f.emit(wvm.OpConst, f.c.constOf(ex.Value), 0, ln(ex))
		return nil
	case *BoolLit:
		f.emit(wvm.OpConst, f.c.constOf(ex.Value), 0, ln(ex))
		return nil

	case *Ident:
		if slot, ok := f.lookupLocal(ex.Name); ok {
			f.emit(wvm.OpLoadL, slot, 0, ln(ex))
			return nil
		}
		if slot, ok := f.states[ex.Name]; ok {
			f.emit(wvm.OpLoadS, slot, 0, ln(ex))
			return nil
		}
		v, ok := f.defEnv.lookup(ex.Name)
		if !ok {
			return f.failf(ex, "undefined variable %q", ex.Name)
		}
		switch cv := v.(type) {
		case int64, float64, bool, string:
			f.emit(wvm.OpLoadC, f.c.constOf(cv), 0, ln(ex))
		case unitVal:
			f.emit(wvm.OpLoadC, f.c.constOf(wvm.Unit{}), 0, ln(ex))
		case *arrayVal, *fifoVal:
			ti, err := f.c.templateOf(v, ln(ex))
			if err != nil {
				return err
			}
			f.emit(wvm.OpLoadT, ti, 0, ln(ex))
		case *funcVal:
			return f.failf(ex, "function %q used as a value", ex.Name)
		case *streamVal:
			return f.failf(ex, "stream %q used inside an operator body", ex.Name)
		default:
			return f.failf(ex, "cannot capture %s in an operator body", typeName(v))
		}
		return nil

	case *ArrayLit:
		for _, el := range ex.Elems {
			if err := f.expr(el); err != nil {
				return err
			}
		}
		f.emit(wvm.OpMkArray, int32(len(ex.Elems)), 0, ln(ex))
		return nil

	case *IndexExpr:
		if err := f.expr(ex.Arr); err != nil {
			return err
		}
		if err := f.expr(ex.Index); err != nil {
			return err
		}
		f.emit(wvm.OpIndex, 0, 0, ln(ex))
		return nil

	case *UnExpr:
		if err := f.expr(ex.X); err != nil {
			return err
		}
		switch ex.Op {
		case "-":
			f.emit(wvm.OpNeg, 0, 0, ln(ex))
		case "!":
			f.emit(wvm.OpNot, 0, 0, ln(ex))
		default:
			return f.failf(ex, "unknown unary %q", ex.Op)
		}
		return nil

	case *BinExpr:
		if ex.Op == "&&" || ex.Op == "||" {
			if err := f.expr(ex.L); err != nil {
				return err
			}
			op, ctx := wvm.OpAnd, int32(0)
			if ex.Op == "||" {
				op, ctx = wvm.OpOr, 1
			}
			js := f.emit(op, 0, ctx, ln(ex))
			if err := f.expr(ex.R); err != nil {
				return err
			}
			f.emit(wvm.OpCkBool, 0, ctx, ln(ex))
			f.patch(js)
			return nil
		}
		ai := wvm.ArithIndex(ex.Op)
		if ai < 0 {
			return f.failf(ex, "unknown operator %q", ex.Op)
		}
		if err := f.expr(ex.L); err != nil {
			return err
		}
		if err := f.expr(ex.R); err != nil {
			return err
		}
		f.emit(wvm.OpArith, 0, int32(ai), ln(ex))
		return nil

	case *CallExpr:
		return f.call(ex)

	case *IterateExpr:
		return f.failf(ex, "iterate inside an operator body (operators cannot be created at run time)")
	case *ZipExpr:
		return f.failf(ex, "zip inside an operator body")

	default:
		return f.failf(x, "unknown expression %T", x)
	}
}

func (f *fnCompiler) call(ex *CallExpr) error {
	if _, isBuiltin := builtins[ex.Fn]; isBuiltin {
		bi := wvm.BuiltinIndex(ex.Fn)
		if bi < 0 {
			return f.failf(ex, "builtin %q is not supported in compiled programs", ex.Fn)
		}
		for _, a := range ex.Args {
			if err := f.expr(a); err != nil {
				return err
			}
		}
		f.emit(wvm.OpCallB, int32(bi), int32(len(ex.Args)), ln(ex))
		return nil
	}
	if ex.Fn == "source" {
		return f.failf(ex, "source inside an operator body")
	}
	if _, ok := f.lookupLocal(ex.Fn); ok {
		return f.failf(ex, "%q is not a function", ex.Fn)
	}
	if _, ok := f.states[ex.Fn]; ok {
		return f.failf(ex, "%q is not a function", ex.Fn)
	}
	v, ok := f.defEnv.lookup(ex.Fn)
	if !ok {
		return f.failf(ex, "undefined function %q", ex.Fn)
	}
	fv, ok := v.(*funcVal)
	if !ok {
		return f.failf(ex, "%q is %s, not a function", ex.Fn, typeName(v))
	}
	if len(ex.Args) != len(fv.decl.Params) {
		return f.failf(ex, "%s expects %d args, got %d", ex.Fn, len(fv.decl.Params), len(ex.Args))
	}
	fi, err := f.c.compileFunc(fv)
	if err != nil {
		return err
	}
	for _, a := range ex.Args {
		if err := f.expr(a); err != nil {
			return err
		}
	}
	f.emit(wvm.OpCall, fi, int32(len(ex.Args)), ln(ex))
	return nil
}
