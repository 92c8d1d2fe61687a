// Command wbbench regenerates every table and figure of the paper's
// evaluation and prints them as aligned text tables. It is the interactive
// counterpart of bench_test.go.
//
// Usage:
//
//	wbbench [-fig 5a|5b|6|7|8|9|10|3|text|scale|solvers|batch|replan|recovery|dist|all]
//	        [-seconds N] [-fig6n N] [-shards N] [-stream] [-workers N]
//	        [-solver exact|lagrangian|greedy|race|all]
//	        [-dist-nodes N] [-dist-seconds N] [-dist-hosts 1,2,4,8]
//
// The solvers figure compares the pluggable solver backends (objective,
// proven gap, latency, race wins) on the speech and EEG specs; -solver
// restricts it to one backend (plus the exact reference).
//
// The recovery figure evaluates the fault-tolerance machinery: the
// windows replayed to restore a shard host killed mid-run at every
// (checkpoint cadence, failure window) pair — the recovered result must
// be byte-identical to the clean run — and the control plane's drift
// detection latency under node churn, swept over the mean time to
// failure.
//
// The replan figure evaluates the online control plane: the control
// loop's window-by-window recovery trajectory through a mid-stream
// re-partition of a drift-injected speech deployment.
//
// -shards splits each deployment simulation — the node phase by origin
// and the server-side delivery loop — by origin node (byte-identical
// results, more cores); -stream feeds the traces through streaming
// ingestion in bounded windows instead of materializing them; delivery of
// window w then runs behind the ingest of window w+1.
//
// The batch figure reports each operator's batch-hit rate — the share of
// elements dispatched through BatchWork — over the Figure 9 deployment.
//
// The dist figure runs one large speech deployment (-dist-nodes motes,
// -dist-seconds simulated seconds) once per host count in -dist-hosts,
// splitting the origin nodes across that many in-process shard hosts
// behind the coordinator's per-window barrier (internal/runtime
// DistSession — the same code path wbserved peers run behind /v1/shard,
// minus HTTP). Every placement must be byte-identical to the
// single-host run. It is not part of -fig all: the default 640-mote
// deployment is deliberately 10× the largest single-host benchmark.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"

	"wishbone/internal/experiments"
	"wishbone/internal/platform"
)

// figures is the -fig vocabulary.
var figures = []string{"3", "5a", "5b", "6", "7", "8", "9", "10", "text", "scale",
	"solvers", "batch", "replan", "recovery", "dist", "all"}

// checkFig rejects a -fig value no figure answers to: it would match
// nothing, build nothing, and exit 0 looking like a successful run.
func checkFig(name string) error {
	if slices.Contains(figures, name) {
		return nil
	}
	return fmt.Errorf("unknown -fig %q (want one of %s)", name, strings.Join(figures, ", "))
}

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate ("+strings.Join(figures, ", ")+"; dist only runs when named)")
	seconds := flag.Float64("seconds", 60, "simulated deployment duration for figures 9-10")
	fig6n := flag.Int("fig6n", 9, "solver invocations for the figure 6 sweep (paper: 2100)")
	solverName := flag.String("solver", "all", "backend for the solvers figure: exact|lagrangian|greedy|race|all")
	shards := flag.Int("shards", 0, "origin shards per simulation, node phase and delivery (0/1 = sequential)")
	stream := flag.Bool("stream", false, "feed simulation traces through streaming ingestion")
	workers := flag.Int("workers", 0, "simulation worker bound, node phase and delivery (0 = GOMAXPROCS)")
	distNodes := flag.Int("dist-nodes", 640, "motes in the dist figure's deployment")
	distSeconds := flag.Float64("dist-seconds", 10, "simulated duration for the dist figure")
	distHosts := flag.String("dist-hosts", "1,2,4,8", "comma-separated host counts for the dist figure")
	flag.Parse()
	if err := checkFig(*fig); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }
	out := func(t *experiments.Table) { fmt.Println(); fmt.Print(t.String()) }

	var speech *experiments.SpeechEnv
	needSpeech := func() *experiments.SpeechEnv {
		if speech == nil {
			var err error
			speech, err = experiments.NewSpeechEnv()
			if err != nil {
				log.Fatal(err)
			}
			speech.Shards = *shards
			speech.Stream = *stream
			speech.Workers = *workers
		}
		return speech
	}

	if want("3") {
		rows, err := experiments.Fig3()
		if err != nil {
			log.Fatal(err)
		}
		out(experiments.Fig3Table(rows))
	}
	if want("5a") {
		env, err := experiments.NewEEGEnv(1, 16)
		if err != nil {
			log.Fatal(err)
		}
		rates := []float64{0.25, 0.5, 1, 2, 3, 4, 6, 8, 12, 16, 20}
		rows, err := experiments.Fig5a(env, rates,
			[]*platform.Platform{platform.TMoteSky(), platform.NokiaN80()})
		if err != nil {
			log.Fatal(err)
		}
		out(experiments.Fig5aTable(rows))
	}
	if want("5b") {
		out(experiments.Fig5bTable(needSpeech()))
	}
	if want("6") {
		env, err := experiments.NewEEGEnv(22, 8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "figure 6: %d invocations on the %d-operator EEG app (this takes a while)...\n",
			*fig6n, env.App.Graph.NumOperators())
		pts, err := experiments.Fig6(env, *fig6n, 0.1, 4, experiments.DefaultFig6Options())
		if err != nil {
			log.Fatal(err)
		}
		out(experiments.Fig6Table(pts))
	}
	if want("7") {
		out(experiments.Fig7Table(needSpeech()))
	}
	if want("8") {
		out(experiments.Fig8Table(needSpeech()))
	}
	if want("9") {
		rows, err := experiments.Fig9(needSpeech(), *seconds)
		if err != nil {
			log.Fatal(err)
		}
		out(experiments.Fig9Table(rows))
	}
	if want("10") {
		rows, err := experiments.Fig10(needSpeech(), *seconds)
		if err != nil {
			log.Fatal(err)
		}
		out(experiments.Fig10Table(rows))
	}
	if want("text") {
		e := needSpeech()
		mk, err := experiments.TextMeraki(e)
		if err != nil {
			log.Fatal(err)
		}
		rs, err := experiments.TextRateSearch(e)
		if err != nil {
			log.Fatal(err)
		}
		gm, err := experiments.TextGumstix(e, 30)
		if err != nil {
			log.Fatal(err)
		}
		out(&experiments.Table{
			Title:  "§7.3.1 in-text results",
			Header: []string{"claim", "paper", "measured"},
			Rows: [][]string{
				{"Meraki optimal cut", "raw data (1 op on node)",
					fmt.Sprintf("%d op(s) on node, raw=%v", mk.OnNodeOps, mk.RawIsBest)},
				{"max sustainable rate", "3 events/s",
					fmt.Sprintf("%.2f events/s", rs.EventsPerSec)},
				{"optimal cut at that rate", "after filterbank",
					"after " + rs.CutAfter},
				{"Gumstix CPU", "11.5%% predicted, 15%% measured",
					fmt.Sprintf("%.1f%% predicted, %.1f%% measured",
						100*gm.PredictedCPU, 100*gm.MeasuredCPU)},
			},
		})
	}
	if want("batch") {
		rows, err := experiments.BatchHitRates(needSpeech(), 1, *seconds)
		if err != nil {
			log.Fatal(err)
		}
		out(experiments.BatchHitTable(rows))
	}
	if *fig == "dist" {
		var hostCounts []int
		for _, part := range strings.Split(*distHosts, ",") {
			h, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || h < 1 {
				log.Fatalf("bad -dist-hosts entry %q", part)
			}
			hostCounts = append(hostCounts, h)
		}
		rows, err := experiments.DistScaling(needSpeech(), *distNodes, *distSeconds, hostCounts)
		if err != nil {
			log.Fatal(err)
		}
		out(experiments.DistScalingTable(*distNodes, *distSeconds, rows))
	}
	if want("replan") {
		rows, res, err := experiments.ReplanRecovery(4, 16)
		if err != nil {
			log.Fatal(err)
		}
		out(experiments.ReplanRecoveryTable(rows))
		fmt.Printf("\nreplan recovery run: %d msgs sent, %d server emits\n", res.MsgsSent, res.ServerEmits)
	}
	if want("recovery") {
		const recNodes, recSeconds = 4, 16
		rows, err := experiments.HostFailureRecovery(needSpeech(), recNodes, recSeconds,
			[]int{1, 2, 4}, []int{1, 3, 6})
		if err != nil {
			log.Fatal(err)
		}
		out(experiments.HostFailureRecoveryTable(recNodes, recSeconds, rows))
		churn, err := experiments.ChurnRecovery(recNodes, 40, []float64{40, 20, 10, 5})
		if err != nil {
			log.Fatal(err)
		}
		out(experiments.ChurnRecoveryTable(recNodes, 40, churn))
	}
	if want("solvers") {
		backends := []string{"exact", "lagrangian", "greedy", "race"}
		switch *solverName {
		case "all":
		case "exact":
			backends = []string{"exact"}
		default:
			backends = []string{"exact", *solverName}
		}
		rows, err := experiments.SolverCompare(backends)
		if err != nil {
			log.Fatal(err)
		}
		out(experiments.SolverCompareTable(rows))
	}
	if want("scale") {
		env, err := experiments.NewEEGEnv(22, 8)
		if err != nil {
			log.Fatal(err)
		}
		res, err := experiments.ILPScale(env, experiments.DefaultFig6Options())
		if err != nil {
			log.Fatal(err)
		}
		out(&experiments.Table{
			Title:  "§4.2: ILP scale",
			Header: []string{"operators", "clusters", "vars", "constraints", "solve s", "B&B nodes"},
			Rows: [][]string{{
				fmt.Sprint(res.Operators), fmt.Sprint(res.ClustersAfter),
				fmt.Sprint(res.Variables), fmt.Sprint(res.Constraints),
				fmt.Sprintf("%.2f", res.SolveSeconds), fmt.Sprint(res.SolverBBNodes),
			}},
		})
	}
}
