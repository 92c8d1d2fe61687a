package experiments

import (
	"context"
	"fmt"

	"wishbone/internal/core"
	"wishbone/internal/netsim"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// Fig5bRow is one platform's sustainable rate at one viable cutpoint.
type Fig5bRow struct {
	Cutpoint string
	Platform string
	// RateMultiple is the compute-bound sustainable input rate as a
	// multiple of 8 kHz (1.0 = real time; below 1 the platform cannot keep
	// up, the bars under the horizontal line in Figure 5(b)).
	RateMultiple float64
}

// Fig5b computes the maximum compute-bound data rate for each viable
// cutpoint on each platform (Figure 5(b)).
func Fig5b(e *SpeechEnv) []Fig5bRow {
	platforms := []*platform.Platform{
		platform.TMoteSky(), platform.NokiaN80(), platform.IPhone(),
		platform.VoxNet(), platform.Scheme(),
	}
	var rows []Fig5bRow
	for _, cp := range e.ViableCutpoints() {
		for _, p := range platforms {
			per := e.nodeSecondsPerFrame(p, cp.Prefix)
			mult := 1e9 // source-only cut: no node compute at all
			if per > 0 {
				// CPU-sustainable frames/s over the required frames/s.
				mult = (1 / per) / speechFrameRate
			}
			rows = append(rows, Fig5bRow{Cutpoint: cp.Label, Platform: p.Name, RateMultiple: mult})
		}
	}
	return rows
}

const speechFrameRate = 40.0

// Fig5bTable renders Fig5b.
func Fig5bTable(e *SpeechEnv) *Table {
	t := &Table{
		Title:  "Figure 5(b): max sustainable rate (multiple of 8 kHz) per cutpoint per platform",
		Header: []string{"cutpoint", "TinyOS", "JavaME", "iPhone", "VoxNet", "Scheme"},
	}
	rows := Fig5b(e)
	byCut := map[string][]float64{}
	var order []string
	for _, r := range rows {
		if _, ok := byCut[r.Cutpoint]; !ok {
			order = append(order, r.Cutpoint)
		}
		byCut[r.Cutpoint] = append(byCut[r.Cutpoint], r.RateMultiple)
	}
	for _, cut := range order {
		cells := []string{cut}
		for _, v := range byCut[cut] {
			if v > 1e6 {
				cells = append(cells, "inf")
			} else {
				cells = append(cells, fmt.Sprintf("%.3g", v))
			}
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}

// Fig7Row is one pipeline operator's profile on the TMote.
type Fig7Row struct {
	Operator       string
	MarginalMicros float64 // CPU µs per frame for this operator
	CumulativeUs   float64 // CPU µs per frame through this operator
	OutKBps        float64 // output bandwidth at full rate, KB/s
}

// Fig7 reproduces the TMote profile visualization: marginal and cumulative
// per-frame CPU cost of each operator, and the bandwidth of a cut placed
// after it.
func Fig7(e *SpeechEnv) []Fig7Row {
	tm := platform.TMoteSky()
	bws := e.Report.Bandwidths()
	var rows []Fig7Row
	var cum float64
	for i, op := range e.App.Pipeline {
		if op == e.App.Sink {
			break
		}
		us := e.Report.OpSeconds(tm, op.ID()) * 1e6
		cum += us
		var out float64
		for _, edge := range e.App.Graph.Out(op) {
			out += bws[edge].Mean
		}
		_ = i
		rows = append(rows, Fig7Row{
			Operator:       op.Name,
			MarginalMicros: us,
			CumulativeUs:   cum,
			OutKBps:        out / 1000,
		})
	}
	return rows
}

// Fig7Table renders Fig7.
func Fig7Table(e *SpeechEnv) *Table {
	t := &Table{
		Title:  "Figure 7: TMote Sky speech pipeline profile",
		Header: []string{"operator", "µs/frame", "cumulative µs", "cut bandwidth KB/s"},
	}
	for _, r := range Fig7(e) {
		t.Rows = append(t.Rows, []string{r.Operator, f1(r.MarginalMicros), f1(r.CumulativeUs), f3(r.OutKBps)})
	}
	return t
}

// Fig8Row is one operator's share of total CPU on each platform.
type Fig8Row struct {
	Operator string
	// CumFraction[platform] is the cumulative fraction of total pipeline
	// CPU consumed through this operator.
	CumFraction map[string]float64
}

// Fig8 reproduces the normalized cumulative CPU comparison (Mote, N80, PC):
// if relative costs were platform-independent the three curves would be
// identical; software floating point on the mote makes `cepstrals` tower
// instead.
func Fig8(e *SpeechEnv) []Fig8Row {
	platforms := []*platform.Platform{platform.TMoteSky(), platform.NokiaN80(), platform.Server()}
	totals := map[string]float64{}
	for _, p := range platforms {
		for _, op := range e.App.Pipeline {
			totals[p.Name] += e.Report.OpSeconds(p, op.ID())
		}
	}
	cums := map[string]float64{}
	var rows []Fig8Row
	for _, op := range e.App.Pipeline {
		if op == e.App.Sink {
			break
		}
		row := Fig8Row{Operator: op.Name, CumFraction: map[string]float64{}}
		for _, p := range platforms {
			cums[p.Name] += e.Report.OpSeconds(p, op.ID())
			row.CumFraction[p.Name] = cums[p.Name] / totals[p.Name]
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig8Table renders Fig8.
func Fig8Table(e *SpeechEnv) *Table {
	t := &Table{
		Title:  "Figure 8: normalized cumulative CPU by platform",
		Header: []string{"operator", "Mote", "N80", "PC"},
	}
	for _, r := range Fig8(e) {
		t.Rows = append(t.Rows, []string{
			r.Operator, f3(r.CumFraction["TMoteSky"]), f3(r.CumFraction["NokiaN80"]),
			f3(r.CumFraction["Server"]),
		})
	}
	return t
}

// Fig9Row is one cutpoint's loss breakdown on the 1-TMote deployment.
type Fig9Row struct {
	Cutpoint     int
	Label        string
	InputPct     float64
	MsgsPct      float64
	GoodputPct   float64
	NodeCPU      float64
	OfferedBps   float64
	DeliveryProb float64
}

// Fig9 deploys the speech app on a single TMote + basestation at every
// cutpoint and measures input loss, network loss, and goodput.
func Fig9(e *SpeechEnv, seconds float64) ([]Fig9Row, error) {
	return runCutpointSweep(e, 1, seconds)
}

// Fig10Rows pairs single-node and 20-node goodput per cutpoint.
type Fig10Rows struct {
	Single  []Fig9Row
	Network []Fig9Row
}

// Fig10 compares a single TMote against a 20-TMote network.
func Fig10(e *SpeechEnv, seconds float64) (*Fig10Rows, error) {
	single, err := runCutpointSweep(e, 1, seconds)
	if err != nil {
		return nil, err
	}
	network, err := runCutpointSweep(e, 20, seconds)
	if err != nil {
		return nil, err
	}
	return &Fig10Rows{Single: single, Network: network}, nil
}

func runCutpointSweep(e *SpeechEnv, nodes int, seconds float64) ([]Fig9Row, error) {
	var rows []Fig9Row
	for k := 1; k <= NumSpeechCutpoints; k++ {
		res, err := runtime.Run(runtime.Config{
			Graph:    e.App.Graph,
			OnNode:   e.CutpointOnNode(k),
			Platform: platform.TMoteSky(),
			Nodes:    nodes,
			Duration: seconds,
			Inputs: func(nodeID int) []profile.Input {
				return []profile.Input{e.App.SampleTrace(int64(1000+nodeID), 2.0)}
			},
			Seed: int64(k),
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{
			Cutpoint:     k,
			Label:        e.CutpointLabel(k),
			InputPct:     res.PercentInputProcessed(),
			MsgsPct:      res.PercentMsgsReceived(),
			GoodputPct:   res.Goodput(),
			NodeCPU:      res.NodeCPU,
			OfferedBps:   res.OfferedAirBytesPerSec,
			DeliveryProb: res.DeliveryRatio,
		})
	}
	return rows, nil
}

// Fig9Table renders Fig9.
func Fig9Table(rows []Fig9Row) *Table {
	t := &Table{
		Title:  "Figure 9: 1 TMote + basestation loss across cutpoints",
		Header: []string{"cut", "label", "input %", "msgs %", "goodput %"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Cutpoint), r.Label, f1(r.InputPct), f1(r.MsgsPct), f2(r.GoodputPct),
		})
	}
	return t
}

// Fig10Table renders Fig10.
func Fig10Table(rows *Fig10Rows) *Table {
	t := &Table{
		Title:  "Figure 10: goodput, 1 TMote vs 20-TMote network",
		Header: []string{"cut", "label", "1 mote %", "20 motes %"},
	}
	for i := range rows.Single {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(rows.Single[i].Cutpoint), rows.Single[i].Label,
			f2(rows.Single[i].GoodputPct), f2(rows.Network[i].GoodputPct),
		})
	}
	return t
}

// MerakiResult reports the §7.3.1 Meraki claim: its optimal cut ships raw
// data (cutpoint 1) because its WiFi uplink outruns its CPU.
type MerakiResult struct {
	OnNodeOps int
	NetLoad   float64
	RawIsBest bool
}

// TextMeraki partitions the speech app for the Meraki Mini.
func TextMeraki(e *SpeechEnv) (*MerakiResult, error) {
	spec := e.Spec(platform.MerakiMini())
	asg, err := core.Partition(context.Background(), spec, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	onNode := asg.NodeOperatorCount()
	return &MerakiResult{
		OnNodeOps: onNode,
		NetLoad:   asg.NetLoad,
		RawIsBest: onNode == 1, // only the source on the node → raw data cut
	}, nil
}

// RateSearchResult reports §7.3.1's binary search: the max sustainable
// input rate on the TMote under network profiling's bandwidth cap, and the
// cutpoint chosen there.
type RateSearchResult struct {
	// EventsPerSec is the max sustainable source rate (paper: 3/s).
	EventsPerSec float64
	// RateMultiple is the same as a multiple of the full 40 frames/s.
	RateMultiple float64
	// CutAfter is the name of the last node-side pipeline operator at the
	// optimal partition (paper: filterbank).
	CutAfter string
	Probes   int
}

// TextRateSearch runs the §4.3 binary search for the TMote deployment.
func TextRateSearch(e *SpeechEnv) (*RateSearchResult, error) {
	tm := platform.TMoteSky()
	spec := e.Spec(tm)
	// Cap the search at the network profiler's max send rate (§7.3.1).
	ch := netsim.ChannelFor(tm)
	maxAir, err := ch.MaxSendRate(0.9)
	if err != nil {
		return nil, err
	}
	spec.NetBudget = netsim.PerNodePayloadBudget(tm.Radio, maxAir, 1)

	res, err := core.MaxRate(context.Background(), spec, 4.0, 0.002, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	out := &RateSearchResult{Probes: res.Probes}
	if res.Rate <= 0 || res.Assignment == nil {
		return out, nil
	}
	out.RateMultiple = res.Rate
	out.EventsPerSec = res.Rate * speechFrameRate
	// Find the deepest node-side pipeline operator.
	for _, op := range e.App.Pipeline {
		if res.Assignment.OnNode[op.ID()] {
			out.CutAfter = op.Name
		}
	}
	return out, nil
}

// GumstixResult compares profiling's CPU prediction with the runtime
// measurement including OS overhead (§7.3.1: 11.5% predicted vs 15%
// measured).
type GumstixResult struct {
	PredictedCPU float64
	MeasuredCPU  float64
}

// TextGumstix runs the whole pipeline on a simulated Gumstix.
func TextGumstix(e *SpeechEnv, seconds float64) (*GumstixResult, error) {
	gum := platform.Gumstix()
	onNode := e.CutpointOnNode(NumSpeechCutpoints) // entire app on the node
	res, err := runtime.Run(runtime.Config{
		Graph: e.App.Graph, OnNode: onNode, Platform: gum,
		Nodes: 1, Duration: seconds,
		Inputs: func(nodeID int) []profile.Input {
			return []profile.Input{e.App.SampleTrace(55, 2.0)}
		},
		Seed: 7,
	})
	if err != nil {
		return nil, err
	}
	return &GumstixResult{
		PredictedCPU: runtime.PredictedNodeCPU(e.Report, gum, onNode, 1),
		MeasuredCPU:  res.NodeCPU,
	}, nil
}
