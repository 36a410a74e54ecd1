// Command fedms-bench regenerates the paper's evaluation artifacts.
//
// One experiment id per paper figure/table (see DESIGN.md §4), plus the
// studies beyond the paper:
//
//	fedms-bench -exp fig2               # Fig 2(a-d), all four attacks
//	fedms-bench -exp fig2 -attack noise # a single panel
//	fedms-bench -exp fig3               # Byzantine-share sweep
//	fedms-bench -exp fig4               # Dirichlet distribution dump
//	fedms-bench -exp fig5               # heterogeneity sweep
//	fedms-bench -exp table2             # settings echo
//	fedms-bench -exp theorem1           # O(1/T) rate check
//	fedms-bench -exp commcost           # sparse vs full upload traffic
//	fedms-bench -exp codec              # upload-codec bytes vs accuracy
//	fedms-bench -exp ablation           # filter + upload ablations
//	fedms-bench -exp defense            # rules x attacks defense matrix
//	fedms-bench -exp stats              # Fig 2 finals over -seeds seeds
//	fedms-bench -exp sweep              # trim rate beta x Byzantine share
//	fedms-bench -exp scale              # rounds/sec vs K -> scale_curve.json
//	fedms-bench -exp straggler          # sync vs async round time -> straggler_curve.json
//	fedms-bench -exp all                # everything but scale and straggler
//
// -quick shrinks rounds/clients for a fast smoke pass; -csvdir writes
// each experiment's series as CSV files. scale and straggler are not
// part of "all": each writes a JSON curve (-scaleout, -stragglerout)
// that CI keeps as a build artifact.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"fedms/internal/experiments"
	"fedms/internal/metrics"
	"fedms/internal/plot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedms-bench:", err)
		os.Exit(1)
	}
}

// experimentIDs is the one list of -exp values: it drives the flag's
// help text and its validation.
var experimentIDs = []string{
	"fig2", "fig3", "fig4", "fig5", "table2", "theorem1", "commcost", "codec",
	"ablation", "defense", "stats", "sweep", "scale", "straggler", "all",
}

func run(args []string) error {
	fs := flag.NewFlagSet("fedms-bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: "+strings.Join(experimentIDs, "|"))
		attack   = fs.String("attack", "", "restrict fig2 to one attack (noise|random|safeguard|backward)")
		quick    = fs.Bool("quick", false, "shrink rounds and dataset for a fast smoke pass")
		seed     = fs.Uint64("seed", 1, "experiment seed")
		rounds   = fs.Int("rounds", 0, "override training rounds (0 = paper's 60)")
		csvdir   = fs.String("csvdir", "", "write per-experiment CSV files to this directory")
		asPlot   = fs.Bool("plot", false, "render each experiment as an ASCII chart in addition to the table")
		evalStr  = fs.Int("eval", 0, "evaluate every N rounds (0 = 5)")
		seeds    = fs.Int("seeds", 3, "seed repetitions for the stats experiment")
		scaleout = fs.String("scaleout", "scale_curve.json", "output path for the scale experiment's JSON curve")
		stragout = fs.String("stragglerout", "straggler_curve.json", "output path for the straggler experiment's JSON curve")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(experimentIDs, *exp) {
		return fmt.Errorf("unknown experiment %q", *exp)
	}

	opts := experiments.Options{Seed: *seed, Rounds: *rounds, EvalEvery: *evalStr}
	if *quick {
		opts.Rounds = 10
		opts.Clients = 20
		opts.Servers = 5
		opts.Samples = 3000
		opts.EvalEvery = 2
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	out := os.Stdout
	emit := func(name string, tbl *metrics.Table) error {
		if err := tbl.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if *asPlot {
			if err := plot.Render(out, tbl, plot.Options{Width: 64, Height: 14, YMin: 0, YMax: 1}); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		if *csvdir != "" {
			if err := os.MkdirAll(*csvdir, 0o755); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(*csvdir, name+".csv"))
			if err != nil {
				return err
			}
			defer f.Close()
			if err := tbl.WriteCSV(f); err != nil {
				return err
			}
		}
		return nil
	}

	if want("table2") {
		fmt.Fprint(out, experiments.Table2(opts))
		fmt.Fprintln(out)
	}

	if want("fig2") {
		attacks := []string{"noise", "random", "safeguard", "backward"}
		if *attack != "" {
			attacks = []string{*attack}
		}
		for _, a := range attacks {
			tbl, err := experiments.Fig2(a, opts)
			if err != nil {
				return err
			}
			if err := emit("fig2_"+a, tbl); err != nil {
				return err
			}
		}
	}

	if want("fig3") {
		for _, eps := range []int{0, 10, 20, 30} {
			tbl, err := experiments.Fig3(eps, opts)
			if err != nil {
				return err
			}
			if err := emit(fmt.Sprintf("fig3_eps%d", eps), tbl); err != nil {
				return err
			}
		}
	}

	if want("fig4") {
		hists, err := experiments.Fig4(opts)
		if err != nil {
			return err
		}
		if err := experiments.WriteFig4(out, hists); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	if want("fig5") {
		tbl, err := experiments.Fig5(opts)
		if err != nil {
			return err
		}
		if err := emit("fig5", tbl); err != nil {
			return err
		}
	}

	if want("theorem1") {
		for _, byz := range []int{0, 1} {
			results, err := experiments.Theorem1(byz, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "Theorem 1: O(1/T) convergence check (quadratics, B=%d of 5 servers)\n", byz)
			fmt.Fprintf(out, "%8s  %16s  %14s\n", "rounds", "F(w)-F*", "T*(F(w)-F*)")
			for _, r := range results {
				fmt.Fprintf(out, "%8d  %16.6g  %14.6g\n", r.Rounds, r.Suboptimality, r.TimesT)
			}
			fmt.Fprintln(out)
		}
	}

	if want("commcost") {
		res, err := experiments.CommCost(opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Communication cost per round (model dim d=%d):\n", res.Dim)
		fmt.Fprintf(out, "  sparse upload: %d floats (K*d)\n", res.SparseFloats)
		fmt.Fprintf(out, "  full upload:   %d floats (K*P*d)\n", res.FullFloats)
		fmt.Fprintf(out, "  ratio:         %.1fx (= P)\n\n", res.Ratio)

		rt, err := experiments.RoundTimes(opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Simulated edge-network round time (model %d bytes, heterogeneous ~2MB/s links):\n", rt.ModelBytes)
		fmt.Fprintf(out, "  sparse upload: %v per round\n", rt.Sparse)
		fmt.Fprintf(out, "  full upload:   %v per round\n", rt.Full)
		fmt.Fprintf(out, "  slowdown:      %.2fx\n\n", rt.Ratio)
	}

	if want("codec") {
		rows, err := experiments.CodecCommCost(nil, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Upload codec communication cost (noise attack, eps=20%, beta=0.2):")
		if err := experiments.WriteCodecCommCost(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	if want("ablation") {
		tbl, err := experiments.FilterAblation(opts)
		if err != nil {
			return err
		}
		if err := emit("ablation_filter", tbl); err != nil {
			return err
		}
		tbl, err = experiments.UploadAblation(opts)
		if err != nil {
			return err
		}
		if err := emit("ablation_upload", tbl); err != nil {
			return err
		}
		tbl, err = experiments.TwoSidedAblation(opts)
		if err != nil {
			return err
		}
		if err := emit("ablation_twosided", tbl); err != nil {
			return err
		}
		tbl, err = experiments.ColludingAblation(opts)
		if err != nil {
			return err
		}
		if err := emit("ablation_colluding", tbl); err != nil {
			return err
		}
	}

	if want("defense") {
		res, err := experiments.DefenseMatrix(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Defense matrix: final accuracy, rules x server attacks (eps=20%; codecpoison under topk:0.25):")
		if err := experiments.WriteDefenseMatrix(out, res); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	if want("sweep") {
		res, err := experiments.BetaEpsilonSweep(opts)
		if err != nil {
			return err
		}
		if err := res.WriteMatrix(out, "Design rule: final accuracy over trim rate beta x Byzantine share eps (random attack)"); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	if want("stats") {
		attacks := []string{"noise", "random"}
		if *attack != "" {
			attacks = []string{*attack}
		}
		for _, a := range attacks {
			stats, err := experiments.Fig2Stats(a, *seeds, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "Fig 2 (%s attack), final accuracy over %d seeds (mean ± std):\n", a, *seeds)
			for _, m := range stats {
				fmt.Fprintf(out, "  %-16s %.4f ± %.4f  (per-seed: %v)\n",
					m.Name, m.Result.FinalMean(), m.Result.FinalStd(), rounded(m.Result.Finals))
			}
			fmt.Fprintln(out)
		}
	}

	if *exp == "scale" {
		// Excluded from "all": the K=100k points want an idle machine and
		// the curve is a build artifact (see `make scale`).
		if err := runScale(out, *scaleout, *seed, *quick); err != nil {
			return err
		}
	}

	if *exp == "straggler" {
		// Excluded from "all" like scale: the curve is a build artifact
		// (see `make straggler`), though fully virtual and cheap.
		if err := runStraggler(out, *stragout, *seed, *quick); err != nil {
			return err
		}
	}
	return nil
}

// rounded formats per-seed finals compactly.
func rounded(vals []float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%.3f", v)
	}
	return out
}
