package runtime

import (
	"fmt"
	"time"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/dataflow/reference"
	"wishbone/internal/netsim"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/wire"
)

// RunReference simulates a batch deployment through the reference
// tree-walking dataflow.Executor: one Executor per node, every replica
// executed, strictly sequential, one element at a time, the server side
// scanning the whole graph per message for relocated state, and every
// cut-edge element received as bytes through the real codec
// (codecReceiver). It is the oracle the differential tests hold Run to —
// byte-identical Results. It shares Run's framing, aggregation and pricing
// code (sender, nodeSim, aggregateReduceMessages), so what it checks
// independently is the execution engine, closed-form reception
// (shardState.receive) and Run's replay, pooling, sharding and batching
// around them.
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

	nodes, err := referenceNodes(cfg, scale)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	msgs := nodes.drain(res, nil)
	for _, nb := range nodes.tally(res) {
		res.NodeCPU += nb.Busy
	}
	res.NodeCPU /= cfg.Duration * float64(cfg.Nodes)

	msgs = aggregateReduceMessages(cfg, msgs, res)
	air := 0
	for _, m := range msgs {
		air += m.air
	}
	res.OfferedAirBytesPerSec = float64(air) / cfg.Duration
	res.DeliveryRatio = netsim.ChannelFor(cfg.Platform).DeliveryRatio(res.OfferedAirBytesPerSec)

	srv := newLegacyServer(&cfg)
	if err := deliverReference(srv, newCodecReceiver(&cfg), msgs, res); err != nil {
		return nil, err
	}
	res.ServerEmits = srv.emitsCount
	return res, nil
}

// referenceNodes is RunReference's node stage: one Executor per node,
// every replica executed, element at a time, fed cfg.Inputs at the given
// rate scale.
func referenceNodes(cfg Config, scale float64) (nodeSims, error) {
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
		ex := reference.NewExecutor(cfg.Graph, n)
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
	return nodes, nil
}

// deliverReference receives every message through rx at res's delivery
// ratio and pushes the survivors into srv, accruing the delivery counters;
// a server-side work-function panic becomes an error, as in Run.
func deliverReference(srv *legacyServer, rx *codecReceiver, msgs []message, res *Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = workPanicError(r, "server")
		}
	}()
	for i := range msgs {
		m := &msgs[i]
		val, ok, err := rx.receive(m, res.DeliveryRatio)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		res.DeliveredBytes += dataflow.WireSize(val)
		if err := srv.deliver(m, val); err != nil {
			return err
		}
	}
	res.MsgsReceived = rx.received
	return nil
}

// codecReceiver is reception as bytes — the definition shardState.receive
// computes in closed form. A message the codec encodes is marshalled and
// fragmented into the radio's packets (checking the sender's closed-form
// packet count and air bytes against them), its surviving fragments are
// offered to the (origin, edge) stream's wire.Reassembler, and the
// completed element is the one Unmarshal decodes. Losses come from the
// same per-origin LossSampler streams the shards draw.
type codecReceiver struct {
	cfg      *Config
	reasm    map[reasmKey]*wire.Reassembler
	rng      map[int]*netsim.LossSampler
	received int // MsgsReceived
}

func newCodecReceiver(cfg *Config) *codecReceiver {
	return &codecReceiver{
		cfg:   cfg,
		reasm: make(map[reasmKey]*wire.Reassembler),
		rng:   make(map[int]*netsim.LossSampler),
	}
}

// codecFragments is m's element as the radio carries it: its encoding
// split into fragments numbered m.seq, or nil when the codec does not
// encode it into at most 255 fragments.
func codecFragments(radio platform.Radio, m *message) [][]byte {
	enc, err := wire.Marshal(m.value)
	if err != nil || radio.PacketPayload <= 4 {
		return nil
	}
	frags, _ := wire.Fragment(enc, m.seq, radio.PacketPayload)
	return frags
}

func (c *codecReceiver) receive(m *message, ratio float64) (dataflow.Value, bool, error) {
	sam := c.rng[m.nodeID]
	if sam == nil {
		sam = netsim.NewLossSampler(netsim.NodeSeed(c.cfg.Seed, m.nodeID))
		c.rng[m.nodeID] = sam
	}
	radio := c.cfg.Platform.Radio
	frags := codecFragments(radio, m)
	if (frags != nil) != m.wired {
		return nil, false, fmt.Errorf("codec oracle: %T on %s: sender wired=%v, codec fragments=%d",
			m.value, m.edge, m.wired, len(frags))
	}
	if frags == nil {
		delivered := true
		for _, d := range sam.Draws(m.packets) {
			if d < ratio {
				c.received++
			} else {
				delivered = false
			}
		}
		return m.value, delivered, nil
	}
	air := 0
	for _, f := range frags {
		air += len(f) + radio.PacketOverhead
	}
	if len(frags) != m.packets || air != m.air {
		return nil, false, fmt.Errorf("codec oracle: %T on %s: sender sized %d packets/%d air bytes, codec %d/%d",
			m.value, m.edge, m.packets, m.air, len(frags), air)
	}
	key := reasmKey{node: m.nodeID, edge: m.edge}
	r := c.reasm[key]
	if r == nil {
		r = &wire.Reassembler{}
		c.reasm[key] = r
	}
	var decoded dataflow.Value
	complete := false
	draws := sam.Draws(len(frags))
	for fi, f := range frags {
		if draws[fi] >= ratio {
			continue // fragment lost
		}
		c.received++
		v, done, err := r.Offer(f)
		if err != nil {
			return nil, false, fmt.Errorf("runtime: reassembly: %w", err)
		}
		if done {
			decoded, complete = v, true
		}
	}
	return decoded, complete, nil
}

// legacyServer is the reference server-side path: a tree-walking Executor
// with the original per-message scan over all operators.
type legacyServer struct {
	cfg        *Config
	ex         *reference.Executor
	states     map[int]map[int]any
	emitsCount int
}

func newLegacyServer(cfg *Config) *legacyServer {
	srv := &legacyServer{
		cfg:    cfg,
		ex:     reference.NewExecutor(cfg.Graph, -1),
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

// StreamApp is streamApp: the reduce-aggregation graph and its cut.
var StreamApp = streamApp

// ResumeOnHosts resumes a Snapshot of cfg's run onto hosts that have each
// restored their HostShares entry of it — the resume a replan handoff runs
// in place, on a fresh session. A non-nil rec is armed first, so each
// host's share seeds its checkpoint.
func ResumeOnHosts(cfg Config, data []byte, hosts []HostBinding, rec *DistRecovery) (*Session, error) {
	snap, err := decodeFor(&cfg, data)
	if err != nil {
		return nil, err
	}
	s := &Session{started: time.Now()}
	s.EnableRecovery(rec)
	if err := s.resume(cfg, hosts, snap); err != nil {
		return nil, err
	}
	return s, nil
}

// seizureGain attenuates synth's EEG so that its background activity
// quantizes to near-silence and scores a negative SVM margin, while a
// seizure burst's sub-20 Hz oscillation still scores a positive one. At
// full scale every window, burst or not, scores a margin in the hundreds
// against the SVM's bias of −0.35, so the detector fires once per run and
// never re-arms.
const seizureGain = 1.0 / 1000

// SeizureTrace is app.SampleTrace with every sample scaled by seizureGain:
// the detector declares a seizure wherever synth's state machine (synth.EEG)
// holds a burst across enough consecutive windows.
func SeizureTrace(app *eeg.App, seed int64, seconds float64) []profile.Input {
	inputs := app.SampleTrace(seed, seconds)
	for _, in := range inputs {
		for _, ev := range in.Events {
			w := ev.([]int16)
			for i, v := range w {
				w[i] = int16(float64(v) * seizureGain)
			}
		}
	}
	return inputs
}
