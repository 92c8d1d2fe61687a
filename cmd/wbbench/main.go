// Command wbbench regenerates the tables and figures of the paper's
// evaluation (§7: Figures 3, 5a/b, 6-10, the §7.3.1 in-text results and
// §4.2's scale claim) and prints them as aligned text tables. Systems
// numbers (throughput, allocation, per-layer timings) belong to ./bench.
//
// Usage:
//
//	wbbench [-fig 3|5a|5b|6|7|8|9|10|text|scale|dist|all]
//	        [-seconds N] [-fig6n N]
//	        [-dist-nodes N] [-dist-seconds N] [-dist-hosts 1,2,4,8]
//
// The dist figure runs one large speech deployment (-dist-nodes motes,
// -dist-seconds simulated seconds) once per host count in -dist-hosts,
// splitting the origin nodes across that many in-process shard hosts
// behind the coordinator's per-window barrier (internal/runtime
// Session — the same code path wbserved peers run behind /v1/shard,
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
var figures = []string{"3", "5a", "5b", "6", "7", "8", "9", "10", "text", "scale", "dist", "all"}

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
		rows, err := experiments.Fig5a(env, experiments.Fig5aRates,
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
		t, err := experiments.TextTable(needSpeech())
		if err != nil {
			log.Fatal(err)
		}
		out(t)
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
			Header: []string{"operators", "clusters", "vars", "constraints", "solve s", "B&B nodes", "objective", "gap %"},
			Rows: [][]string{{
				fmt.Sprint(res.Operators), fmt.Sprint(res.ClustersAfter),
				fmt.Sprint(res.Variables), fmt.Sprint(res.Constraints),
				fmt.Sprintf("%.2f", res.SolveSeconds), fmt.Sprint(res.SolverBBNodes),
				fmt.Sprintf("%.0f", res.Objective), fmt.Sprintf("%.3f", 100*res.Gap),
			}},
		})
	}
}
