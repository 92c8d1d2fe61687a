package runtime

import (
	"fmt"

	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/netsim"
	"wishbone/internal/profile"
	"wishbone/internal/wire"
)

// RunReference simulates a batch deployment through the reference
// tree-walking dataflow.Executor: one Executor per node, every replica
// executed, strictly sequential, one element at a time, the server side
// scanning the whole graph per message for relocated state. It is the
// oracle the differential tests hold Run to — byte-identical Results — and
// is built from the same framing, aggregation, pricing and reception code
// as Run (sender, nodeSim, aggregateReduceMessages, shardState.receive), so
// what it checks independently is the execution engine and Run's replay,
// pooling, sharding and batching around it.
func RunReference(cfg Config) (*Result, error) {
	if err := validateConfig(&cfg); err != nil {
		return nil, err
	}
	if cfg.Inputs == nil || cfg.ArrivalSource != nil || cfg.Scenario != nil {
		return nil, fmt.Errorf("runtime: the reference engine runs batch Inputs only")
	}
	scale := cfg.RateScale
	if scale <= 0 {
		scale = 1
	}

	var nodes nodeSims
	for n := 0; n < cfg.Nodes; n++ {
		inputs := cfg.Inputs(n)
		if len(inputs) == 0 {
			return nil, fmt.Errorf("runtime: node %d has no inputs", n)
		}
		arrivals, err := buildArrivals(inputs, scale, cfg.Duration)
		if err != nil {
			return nil, err
		}
		ex := dataflow.NewExecutor(cfg.Graph, n)
		ex.Include = func(op *dataflow.Operator) bool { return cfg.OnNode[op.ID()] }
		counter := &cost.Counter{}
		ex.CounterFor = func(op *dataflow.Operator) *cost.Counter { return counter }
		s := &sender{cfg: &cfg, nodeID: n}
		ex.Boundary = s.capture
		ns := &nodeSim{counter: counter, s: s, inject: ex.Inject}
		if err := ns.feed(&cfg, arrivals); err != nil {
			return nil, err
		}
		nodes = append(nodes, ns)
	}
	res := &Result{}
	msgs := nodes.drain(res, nil)
	for _, nb := range nodes.tally(res) {
		res.NodeCPU += nb.Busy
	}
	res.NodeCPU /= cfg.Duration * float64(cfg.Nodes)

	msgs = aggregateReduceMessages(cfg, msgs, res, nil)
	air := 0
	for _, m := range msgs {
		air += m.air
	}
	res.OfferedAirBytesPerSec = float64(air) / cfg.Duration
	res.DeliveryRatio = netsim.ChannelFor(cfg.Platform).DeliveryRatio(res.OfferedAirBytesPerSec)

	srv := newLegacyServer(&cfg)
	sh := &shardState{
		seed:   cfg.Seed,
		engine: srv,
		reasm:  make(map[reasmKey]*wire.Reassembler),
		rng:    make(map[int]*netsim.LossSampler),
	}
	defer sh.releaseSamplers()
	if err := sh.deliver(msgs, res.DeliveryRatio); err != nil {
		return nil, err
	}
	res.MsgsReceived = sh.res.MsgsReceived
	res.DeliveredBytes = sh.res.DeliveredBytes
	res.ServerEmits = srv.emits()
	return res, nil
}

// legacyServer is the reference server-side path: a tree-walking Executor
// with the original per-message scan over all operators.
type legacyServer struct {
	cfg        *Config
	ex         *dataflow.Executor
	states     map[int]map[int]any
	emitsCount int
}

func newLegacyServer(cfg *Config) *legacyServer {
	srv := &legacyServer{
		cfg:    cfg,
		ex:     dataflow.NewExecutor(cfg.Graph, -1),
		states: make(map[int]map[int]any),
	}
	srv.ex.Include = func(op *dataflow.Operator) bool { return !cfg.OnNode[op.ID()] }
	srv.ex.OnEdge = func(e *dataflow.Edge, v dataflow.Value) { srv.emitsCount++ }
	return srv
}

func (srv *legacyServer) deliver(m *message, val dataflow.Value) error {
	// Swap in the origin node's state for every stateful server-side
	// operator before processing this element.
	for _, op := range srv.cfg.Graph.Operators() {
		if srv.cfg.OnNode[op.ID()] || !op.Stateful || op.NewState == nil {
			continue
		}
		if op.NS == dataflow.NSNode {
			// Relocated node operator: per-node state table.
			tbl := srv.states[op.ID()]
			if tbl == nil {
				tbl = make(map[int]any)
				srv.states[op.ID()] = tbl
			}
			st, ok := tbl[m.nodeID]
			if !ok {
				st = op.NewState()
				tbl[m.nodeID] = st
			}
			srv.ex.SetState(op, st)
		}
	}
	return srv.ex.Push(m.edge.To, m.edge.ToPort, val)
}

// deliverBatch exists only to satisfy serverEngine — a shardState with
// batch unset never calls it.
func (srv *legacyServer) deliverBatch(nodeID int, e *dataflow.Edge, vals []dataflow.Value) error {
	return fmt.Errorf("runtime: the reference server delivers one element at a time")
}

func (srv *legacyServer) emits() int { return srv.emitsCount }

func (srv *legacyServer) close() {}

// OwnEvents returns inputs with every Events slice copied, so a Config
// whose Inputs hands these out executes every node replica instead of
// replaying node 0's (identicalTraces compares backing arrays). The events
// themselves are shared, as they were.
func OwnEvents(inputs []profile.Input) []profile.Input {
	out := make([]profile.Input, len(inputs))
	for i, in := range inputs {
		in.Events = append([]dataflow.Value(nil), in.Events...)
		out[i] = in
	}
	return out
}

// PerElementPrograms compiles cfg's two partitions without batch tables
// and returns cfg carrying them — the configuration that selects the
// per-element feed and delivery loops.
func PerElementPrograms(cfg Config) (Config, error) {
	compile := func(nodeSide bool) (*dataflow.Program, error) {
		return dataflow.Compile(cfg.Graph, dataflow.CompileOptions{
			Include: func(op *dataflow.Operator) bool { return cfg.OnNode[op.ID()] == nodeSide },
		})
	}
	var err error
	if cfg.NodeProgram, err = compile(true); err != nil {
		return cfg, err
	}
	if cfg.ServerProgram, err = compile(false); err != nil {
		return cfg, err
	}
	return cfg, nil
}
