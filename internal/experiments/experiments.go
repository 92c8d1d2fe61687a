// Package experiments reproduces every table and figure in the paper's
// evaluation (§7), plus the in-text numeric claims. Each Fig* function
// regenerates one artifact and returns printable rows; cmd/wbbench prints
// them. EXPERIMENTS.md is the experiment index.
package experiments

import (
	"fmt"
	"strings"

	"wishbone/internal/apps/speech"
	"wishbone/internal/core"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
)

// SpeechEnv is a profiled speech-detection application shared by the
// speech-based experiments.
type SpeechEnv struct {
	App    *speech.App
	Report *profile.Report
	Class  *dataflow.Classification
}

// NewSpeechEnv builds and profiles the speech app on a deterministic trace.
func NewSpeechEnv() (*SpeechEnv, error) {
	app := speech.New()
	rep, err := profile.Run(app.Graph, []profile.Input{app.SampleTrace(2009, 3.0)})
	if err != nil {
		return nil, err
	}
	cls, err := dataflow.Classify(app.Graph, dataflow.Permissive)
	if err != nil {
		return nil, err
	}
	return &SpeechEnv{App: app, Report: rep, Class: cls}, nil
}

// Cutpoints of the speech pipeline used in Figures 9–10: "six relevant
// cutpoints", identified by how many pipeline operators run on the node.
// Index 4 is after filtBank, index 6 after cepstrals, matching the paper's
// peak locations.
var speechCutPrefix = []int{1, 3, 5, 6, 7, 8}

// NumSpeechCutpoints is the number of cutpoints of Figures 9–10.
const NumSpeechCutpoints = 6

// CutpointOnNode returns the node-assignment for 1-based cutpoint index k:
// the first prefix operators run on the node, everything else on the
// server.
func (e *SpeechEnv) CutpointOnNode(k int) map[int]bool {
	prefix := speechCutPrefix[k-1]
	on := make(map[int]bool, len(e.App.Pipeline))
	for i, op := range e.App.Pipeline {
		on[op.ID()] = i < prefix
	}
	return on
}

// CutpointLabel names 1-based cutpoint k after its last node-side operator.
func (e *SpeechEnv) CutpointLabel(k int) string {
	return e.App.Pipeline[speechCutPrefix[k-1]-1].Name
}

// ViableCutpoints are the data-reducing cutpoints of Figure 5(b), as
// "stage-name/ops-on-node" labels with their prefix lengths.
func (e *SpeechEnv) ViableCutpoints() []struct {
	Label  string
	Prefix int
} {
	return []struct {
		Label  string
		Prefix int
	}{
		{"source/1", 1},
		{"filtbank/6", 6},
		{"logs/7", 7},
		{"cepstrals/8", 8},
	}
}

// nodeSecondsPerFrame prices the first prefix pipeline operators on p.
func (e *SpeechEnv) nodeSecondsPerFrame(p *platform.Platform, prefix int) float64 {
	var s float64
	for i := 0; i < prefix; i++ {
		s += e.Report.OpSeconds(p, e.App.Pipeline[i].ID())
	}
	return s
}

// Spec builds the partitioning problem for platform p at the profiled rate.
func (e *SpeechEnv) Spec(p *platform.Platform) *core.Spec {
	return profile.BuildSpec(e.Class, e.Report, p)
}

// Table is a printable experiment result: a header and rows of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table in aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
