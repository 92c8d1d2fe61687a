package wscript

import (
	"fmt"

	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/profile"
	"wishbone/internal/wire"
	"wishbone/internal/wvm"
)

// Source describes a source operator declared by a wscript program.
type Source struct {
	Op   *dataflow.Operator
	Name string
	Rate float64 // events per second, from the program text
}

// Options configures elaboration. Iterate bodies compile to wvm bytecode:
// metered (fuel and memory limits) and snapshotable (operator state is
// plain serializable values).
type Options struct {
	// Limits is the per-invocation fuel/memory budget enforced on every
	// operator (zero means unlimited).
	Limits wvm.Limits
	// Meter, when non-nil, accumulates fuel telemetry across all instances
	// of this program.
	Meter *wvm.Meter
	// RetainOutputs makes the sink stateful, buffering every value that
	// reaches it per instance (drained via Outputs). Hosts running long or
	// snapshotted simulations should leave it off: the sink is then
	// stateless, so server cuts stay shardable and snapshotable, and
	// output counts remain observable via emit statistics.
	RetainOutputs bool

	// reference, which only this package's tests set (tree_test.go),
	// installs the tree-walking oracle's work function on an iterate or
	// zip operator in place of the VM's.
	reference func(op *dataflow.Operator, ex Expr, defEnv *env) error
}

// Compiled is an elaborated wscript program: a dataflow graph ready for
// profiling and partitioning.
type Compiled struct {
	Graph   *dataflow.Graph
	Sources map[string]*Source
	// Sink is the implicitly attached server-side sink consuming `main`.
	Sink *dataflow.Operator
	opts Options
}

// Meter returns the fuel meter shared by every instance (nil unless one
// was supplied in Options).
func (c *Compiled) Meter() *wvm.Meter { return c.opts.Meter }

// sinkState buffers values reaching the sink of one instance. Keeping it in
// per-instance operator state (rather than a field on Compiled) lets
// concurrent sessions share one cached Compiled without interleaving
// outputs.
type sinkState struct {
	vals []any
}

// Outputs drains the values that reached the sink in inst, as plain Go
// values (int64, float64, bool, string, []any). It returns nil unless the
// program was compiled with RetainOutputs.
func (c *Compiled) Outputs(inst *dataflow.Instance) []any {
	st, ok := inst.State(c.Sink).(*sinkState)
	if !ok || st == nil {
		return nil
	}
	out := st.vals
	st.vals = nil
	return out
}

// hostValue converts a VM value into plain Go data.
func hostValue(v any) any {
	switch x := v.(type) {
	case *wvm.Array, *wvm.Fifo:
		return wvm.ToGo(x)
	default:
		return v
	}
}

// elaborator is the compile-time graph-building context.
type elaborator struct {
	g       *dataflow.Graph
	inNode  bool
	nameSeq int
	out     *Compiled
	// budget is what is left of elabBudget for this program.
	budget int64
}

// spend charges units of the elaboration budget; running out is a
// compile error.
func (el *elaborator) spend(line int, units int64) error {
	if units > el.budget {
		return fmt.Errorf("wscript:%d: elaboration budget exhausted (%d array elements, string bytes, loop iterations and calls per program)", line, elabBudget)
	}
	el.budget -= units
	return nil
}

// Compile parses and partially evaluates a wscript program into a dataflow
// graph with the default options: no limits, outputs retained (the
// convenient shape for tests and in-process hosts).
func Compile(src string) (*Compiled, error) {
	return CompileOpts(src, Options{RetainOutputs: true})
}

// CompileOpts is Compile with explicit metering and sink options.
// The program must bind `main` to a stream; a server-side sink is attached
// to it.
func CompileOpts(src string, opts Options) (*Compiled, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	g := dataflow.New()
	compiled := &Compiled{Graph: g, Sources: make(map[string]*Source), opts: opts}
	el := &elaborator{g: g, out: compiled, budget: elabBudget}
	ip := &interp{elab: el}
	top := newEnv(nil)

	// Pass 1: function declarations (order-independent, mutually
	// recursive via the shared top environment).
	for _, item := range prog.Items {
		if fd, ok := item.(*FunDecl); ok {
			top.define(fd.Name, &funcVal{decl: fd, env: top})
		}
	}
	// Pass 2: bindings in order; namespace Node bindings elaborate with
	// the node flag set (§2.1).
	for _, item := range prog.Items {
		switch it := item.(type) {
		case *FunDecl:
			// handled in pass 1
		case *Binding:
			v, err := ip.evalExpr(it.Expr, top)
			if err != nil {
				return nil, err
			}
			top.define(it.Name, v)
		case *NamespaceDecl:
			el.inNode = true
			for _, b := range it.Bindings {
				v, err := ip.evalExpr(b.Expr, top)
				if err != nil {
					return nil, err
				}
				top.define(b.Name, v)
			}
			el.inNode = false
		default:
			return nil, fmt.Errorf("wscript: unknown top-level item %T", item)
		}
	}

	mainV, ok := top.lookup("main")
	if !ok {
		return nil, fmt.Errorf("wscript: program does not bind 'main'")
	}
	mainStream, ok := mainV.(*streamVal)
	if !ok {
		return nil, fmt.Errorf("wscript: 'main' is %s, not a stream", typeName(mainV))
	}
	sink := &dataflow.Operator{
		Name: "main-sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {},
	}
	if opts.RetainOutputs {
		sink.Stateful = true
		sink.NewState = func() any { return &sinkState{} }
		sink.Work = func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			if st, ok := ctx.State.(*sinkState); ok && st != nil {
				st.vals = append(st.vals, hostValue(v))
			}
		}
	}
	g.Add(sink)
	g.Connect(mainStream.op, sink, 0)
	compiled.Sink = sink

	if len(compiled.Sources) == 0 {
		return nil, fmt.Errorf("wscript: program declares no source()")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return compiled, nil
}

// makeSource implements source(name, rate): a node-pinned sensor operator.
func (el *elaborator) makeSource(ex *CallExpr, args []value) (value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("wscript:%d: source(name, rate)", ex.Line)
	}
	name, ok := args[0].(string)
	if !ok {
		return nil, fmt.Errorf("wscript:%d: source name must be a string", ex.Line)
	}
	var rate float64
	switch r := args[1].(type) {
	case int64:
		rate = float64(r)
	case float64:
		rate = r
	default:
		return nil, fmt.Errorf("wscript:%d: source rate must be numeric", ex.Line)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("wscript:%d: source rate must be positive", ex.Line)
	}
	if !el.inNode {
		return nil, fmt.Errorf("wscript:%d: source %q must be declared inside namespace Node", ex.Line, name)
	}
	if _, dup := el.out.Sources[name]; dup {
		return nil, fmt.Errorf("wscript:%d: duplicate source %q", ex.Line, name)
	}
	if err := el.spend(ex.Line, elabOpCost); err != nil {
		return nil, err
	}
	op := el.g.Add(&dataflow.Operator{
		Name: name, NS: dataflow.NSNode, SideEffect: true,
	})
	el.out.Sources[name] = &Source{Op: op, Name: name, Rate: rate}
	return &streamVal{op: op}, nil
}

// probeFuel and initMemBytes bound state-initializer execution — the
// probe during elaboration and every instance's NewState — so a runaway
// initializer is a compile error rather than a hang or an allocation the
// host cannot refuse. Initializers run at compile rate (§2) and are not
// charged against tenant limits.
const (
	probeFuel    = 1 << 24
	initMemBytes = 16 << 20
)

// elabBudget bounds what partially evaluating one program may do before
// any operator runs: one unit per array or fifo element created (literals,
// Array.make, appends, and the copy of a captured structure into an
// operator's template pool), per string byte built by +, per loop
// iteration and per function call, and elabOpCost per operator added to
// the graph. A value is 16 bytes, so the elements a program may build
// while it elaborates come to initMemBytes.
const (
	elabBudget = 1 << 20
	elabOpCost = 1 << 8
)

// makeIterate elaborates `iterate x in s state { } { body }` into a new
// operator: the body is lowered to wvm bytecode and executed with
// per-tenant metering.
func (el *elaborator) makeIterate(ex *IterateExpr, e *env) (value, error) {
	ip := &interp{elab: el}
	sv, err := ip.evalExpr(ex.Stream, e)
	if err != nil {
		return nil, err
	}
	strm, ok := sv.(*streamVal)
	if !ok {
		return nil, fmt.Errorf("wscript:%d: iterate over %s, not a stream", ex.Line, typeName(sv))
	}

	if err := el.spend(ex.Line, elabOpCost); err != nil {
		return nil, err
	}
	el.nameSeq++
	ns := dataflow.NSServer
	if el.inNode {
		ns = dataflow.NSNode
	}
	name := fmt.Sprintf("iter%d@%d", el.nameSeq, ex.Line)

	op := &dataflow.Operator{
		Name:     name,
		NS:       ns,
		Stateful: len(ex.State) > 0,
	}
	if ref := el.out.opts.reference; ref != nil {
		err = ref(op, ex, e)
	} else {
		err = el.buildVMIterate(op, name, ex, e)
	}
	if err != nil {
		return nil, err
	}
	el.g.Add(op)
	el.g.Connect(strm.op, op, 0)
	return &streamVal{op: op}, nil
}

// buildVMIterate compiles the body to bytecode and installs metered VM work
// and snapshot hooks.
func (el *elaborator) buildVMIterate(op *dataflow.Operator, name string, ex *IterateExpr, defEnv *env) error {
	prog, err := compileIterateVM(name, ex.Var, ex.State, ex.Body, defEnv, el)
	if err != nil {
		return err
	}
	limits := el.out.opts.Limits
	meter := el.out.opts.Meter

	if prog.Init >= 0 {
		// Validate the initializer once at compile time (bounded fuel and
		// memory) so instance construction cannot fail for well-typed
		// programs.
		initLimits := wvm.Limits{Fuel: probeFuel, MemBytes: initMemBytes}
		probe := &wvm.State{}
		if err := prog.RunInit(wvm.Env{State: probe, Limits: initLimits}); err != nil {
			return err
		}
		op.NewState = func() any {
			st := &wvm.State{}
			if err := prog.RunInit(wvm.Env{State: st, Limits: initLimits}); err != nil {
				// Initializers are deterministic and were probed above;
				// failures here are programming errors.
				panic(fmt.Sprintf("wscript: state init: %v", err))
			}
			return st
		}
		op.SaveState = func(s any) ([]byte, error) { return s.(*wvm.State).Save() }
		op.LoadState = func(b []byte) (any, error) { return wvm.LoadState(b) }
	}

	op.Work = func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
		val, err := wvm.FromHost(v)
		if err != nil {
			panic(fmt.Sprintf("wscript: cannot convert %T into a wscript value", v))
		}
		var st *wvm.State
		if s, ok := ctx.State.(*wvm.State); ok {
			st = s
		}
		err = prog.RunEntry(val, wvm.Env{
			Counter: ctx.Counter,
			Emit:    func(out wvm.Value) { emit(out) },
			Limits:  limits,
			Meter:   meter,
			State:   st,
			Thread:  dataflow.Workspace[wvm.Thread](ctx),
		})
		if err != nil {
			panic(runtimeError{err})
		}
	}
	return nil
}

// zipVMState is the zip buffer: plain serializable values plus
// the running byte estimate the memory cap is enforced against and the fuel
// burned so far (so metering survives snapshot/resume).
type zipVMState struct {
	queues   [][]wvm.Value
	bytes    int64
	fuelUsed uint64
}

func (z *zipVMState) save() ([]byte, error) {
	w := wire.NewSnapshotWriter()
	w.Uvarint(z.fuelUsed)
	w.Uvarint(uint64(len(z.queues)))
	for _, q := range z.queues {
		w.Uvarint(uint64(len(q)))
		for _, v := range q {
			wvm.EncodeValue(w, v)
		}
	}
	return w.Bytes(), nil
}

func loadZipVMState(data []byte, wantPorts int) (*zipVMState, error) {
	r, err := wire.NewSnapshotReader(data)
	if err != nil {
		return nil, fmt.Errorf("wscript: zip state: %w", err)
	}
	st := &zipVMState{fuelUsed: r.Uvarint()}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wscript: zip state: %w", err)
	}
	if int(n) != wantPorts {
		return nil, fmt.Errorf("wscript: zip state has %d ports, want %d", n, wantPorts)
	}
	st.queues = make([][]wvm.Value, wantPorts)
	for i := range st.queues {
		qn := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("wscript: zip state: %w", err)
		}
		if qn > 1<<24 {
			return nil, fmt.Errorf("wscript: zip queue length %d too large", qn)
		}
		for j := uint64(0); j < qn; j++ {
			v, err := wvm.DecodeValue(r)
			if err != nil {
				return nil, fmt.Errorf("wscript: zip state: %w", err)
			}
			st.queues[i] = append(st.queues[i], v)
			st.bytes += 16 + wvm.SizeOf(v)
		}
	}
	if !r.Done() {
		return nil, fmt.Errorf("wscript: zip state has trailing bytes")
	}
	return st, nil
}

// makeZip elaborates zip(s1, ..., sn): a stateful synchronizing merge that
// emits an n-element array once every input has a pending element.
func (el *elaborator) makeZip(ex *ZipExpr, e *env) (value, error) {
	ip := &interp{elab: el}
	ops := make([]*dataflow.Operator, len(ex.Streams))
	for i, se := range ex.Streams {
		sv, err := ip.evalExpr(se, e)
		if err != nil {
			return nil, err
		}
		strm, ok := sv.(*streamVal)
		if !ok {
			return nil, fmt.Errorf("wscript:%d: zip argument %d is %s, not a stream",
				ex.Line, i+1, typeName(sv))
		}
		ops[i] = strm.op
	}
	if err := el.spend(ex.Line, elabOpCost); err != nil {
		return nil, err
	}
	el.nameSeq++
	ns := dataflow.NSServer
	if el.inNode {
		ns = dataflow.NSNode
	}
	n := len(ops)
	op := &dataflow.Operator{
		Name:     fmt.Sprintf("zip%d@%d", el.nameSeq, ex.Line),
		NS:       ns,
		Stateful: true,
	}
	if ref := el.out.opts.reference; ref != nil {
		if err := ref(op, ex, e); err != nil {
			return nil, err
		}
	} else {
		el.buildVMZip(op, n, int32(ex.Line))
	}
	el.g.Add(op)
	for i, src := range ops {
		el.g.Connect(src, op, i)
	}
	return &streamVal{op: op}, nil
}

// buildVMZip installs the metered, snapshotable zip work function. It
// charges Store 1 per arrival and Load n + Store n per row;
// fuel is 1 per arrival plus 1+2n per emitted row, and the memory cap
// bounds the bytes buffered across all queues.
func (el *elaborator) buildVMZip(op *dataflow.Operator, n int, line int32) {
	limits := el.out.opts.Limits
	meter := el.out.opts.Meter
	op.NewState = func() any { return &zipVMState{queues: make([][]wvm.Value, n)} }
	op.SaveState = func(s any) ([]byte, error) { return s.(*zipVMState).save() }
	op.LoadState = func(b []byte) (any, error) { return loadZipVMState(b, n) }
	op.Work = func(ctx *dataflow.Ctx, port int, v dataflow.Value, emit dataflow.Emit) {
		st := ctx.State.(*zipVMState)
		val, err := wvm.FromHost(v)
		if err != nil {
			panic(fmt.Sprintf("wscript: cannot convert %T into a wscript value", v))
		}
		fuel := uint64(1)
		fail := func(e error) {
			st.fuelUsed += fuel
			meter.AddFuel(fuel)
			meter.AddCall()
			panic(runtimeError{e})
		}
		st.queues[port] = append(st.queues[port], val)
		st.bytes += 16 + wvm.SizeOf(val)
		ctx.Counter.Add(cost.Store, 1)
		if limits.MemBytes > 0 && st.bytes > limits.MemBytes {
			meter.TripMem()
			fail(fmt.Errorf("wscript:%d: %w (cap %d bytes)", line, wvm.ErrMemLimit, limits.MemBytes))
		}
		for {
			ready := true
			for _, q := range st.queues {
				if len(q) == 0 {
					ready = false
					break
				}
			}
			if !ready {
				break
			}
			fuel += 1 + 2*uint64(n)
			if limits.Fuel > 0 && fuel > limits.Fuel {
				meter.TripFuel()
				fail(fmt.Errorf("wscript:%d: %w (budget %d)", line, wvm.ErrFuelExhausted, limits.Fuel))
			}
			row := &wvm.Array{Elems: make([]wvm.Value, n)}
			for i := range st.queues {
				row.Elems[i] = st.queues[i][0]
				st.bytes -= 16 + wvm.SizeOf(st.queues[i][0])
				st.queues[i] = st.queues[i][1:]
			}
			ctx.Counter.Add(cost.Load, n)
			ctx.Counter.Add(cost.Store, n)
			emit(row)
		}
		st.fuelUsed += fuel
		meter.AddFuel(fuel)
		meter.AddCall()
	}
}

// Inputs builds profiling inputs for the compiled program: the host
// supplies a trace generator per source name. Each generator is called
// once per event index.
func (c *Compiled) Inputs(events int, gen func(source string, i int) any) ([]profile.Input, error) {
	var inputs []profile.Input
	for name, src := range c.Sources {
		evs := make([]dataflow.Value, events)
		for i := range evs {
			v, err := wvm.FromHost(gen(name, i))
			if err != nil {
				return nil, fmt.Errorf("wscript: source %s: %v", name, err)
			}
			evs[i] = v
		}
		inputs = append(inputs, profile.Input{Source: src.Op, Events: evs, Rate: src.Rate})
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("wscript: no sources to feed")
	}
	return inputs, nil
}
