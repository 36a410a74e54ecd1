// Command benchmark is the repository's end-to-end benchmark: four
// closed-loop federations (one in-process engine, three loopback-TCP)
// measured for round time, CPU, wire bytes and loss, with a traced
// repetition that attributes a round's cost to layers from outside the
// program. See README.md in this directory.
//
//	bash benchmark/run.sh                      # all workloads -> benchmark/out/result.json
//	bash benchmark/run.sh -workload dist_wide_topk -seed 2
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   # driver contract
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// fullReps is the number of timed repetitions per workload when no
// -seconds budget is given; one traced repetition follows them.
const fullReps = 3

// lossDecrease is the share of the untrained model's loss that
// final_loss must fall below for a run to count as correct. final_loss
// itself repeats exactly per seed but moves by a quarter between seeds,
// so the driver (a new seed every run) gets this check in its place.
const lossDecrease = 0.1

// setup_s is the median of at least setupSamples set-ups; the ones the
// timed repetitions do not supply come from setupRounds-round runs.
const (
	setupSamples = 5
	setupRounds  = 3
)

// stat is a reported value: the median over the repetitions, with their
// spread and count alongside.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// statOf reports the median of xs.
func statOf(xs []float64, unit string) stat {
	return stat{Median: median(xs), Min: slices.Min(xs), Max: slices.Max(xs), N: len(xs), Unit: unit}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// workloadResult is one workload's section of result.json.
type workloadResult struct {
	Rounds     int                `json:"rounds"`
	Warmup     int                `json:"warmup"`
	EndToEnd   map[string]stat    `json:"end_to_end,omitempty"`
	PerLayer   map[string]stat    `json:"per_layer,omitempty"`
	TraceSelfS map[string]float64 `json:"trace_self_s_per_round,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	ModelHash  string             `json:"model_hash"`
	Checks     []check            `json:"checks"`
}

// runContext records where the numbers were taken; -compare refuses
// results whose gomaxprocs or round counts differ.
type runContext struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	Load1      float64 `json:"load1_at_start"`
	Noisy      bool    `json:"noisy"`
	Quick      bool    `json:"quick,omitempty"`
}

type resultFile struct {
	Context   runContext                 `json:"context"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type options struct {
	seed    uint64
	workers int
	outDir  string
	quick   bool
}

// runRep runs one repetition of w; a traced one also carries its
// per-layer metrics and the checks only a traced run can make.
func runRep(w workload, o options, traced bool) (*repResult, error) {
	if w.Engine {
		res, e, err := runEngine(w, o.seed, traced, o.workers)
		if err != nil || !traced {
			return res, err
		}
		var cs []check
		res.Layer, cs, err = e.layerMetrics(res)
		res.checks = append(res.checks, cs...)
		return res, err
	}
	res, f, err := runFederation(w, o.seed, traced, o.outDir)
	if err != nil || !traced {
		return res, err
	}
	var cs []check
	res.Layer, cs, err = f.layerMetrics(res, o.outDir)
	res.checks = append(res.checks, cs...)
	return res, err
}

// How measureWorkload places traced repetitions among the timed ones.
const (
	traceNone  = iota
	traceOnce  // one traced repetition after the timed ones
	tracePairs // every timed repetition is followed by a traced one
)

// measureWorkload runs w's repetitions and folds them into a result.
// Timed repetitions run while more(n, elapsed) holds. Per-layer numbers
// are medians over the traced repetitions, and their round time against
// the untraced one is the tracing overhead.
func measureWorkload(w workload, o options, trace int, parity bool, more func(n int, elapsed time.Duration) bool) (*workloadResult, error) {
	out := &workloadResult{Rounds: w.Rounds, Warmup: warmupOf(w)}
	var timed, traced []*repResult
	start := time.Now()
	for n := 0; n == 0 || more(n, time.Since(start)); n++ {
		rep, err := runRep(w, o, false)
		if err != nil {
			return nil, err
		}
		timed = append(timed, rep)
		if trace == tracePairs {
			if rep, err = runRep(w, o, true); err != nil {
				return nil, err
			}
			traced = append(traced, rep)
		}
	}
	if trace == traceOnce {
		rep, err := runRep(w, o, true)
		if err != nil {
			return nil, err
		}
		traced = append(traced, rep)
	}

	hashes := map[string]bool{}
	for _, rep := range append(append([]*repResult(nil), timed...), traced...) {
		out.Attempted += rep.Attempted
		out.Failed += rep.Failed
		out.Checks = append(out.Checks, rep.checks...)
		hashes[rep.Hash] = true
	}
	out.ModelHash = timed[0].Hash
	out.Checks = append(out.Checks,
		checkf("model_hash_repeats", len(hashes) == 1, "%d repetitions ended in %d different models", len(timed)+len(traced), len(hashes)),
		checkf("no_failed_client_rounds", out.Failed == 0, "failed_share = %d/%d", out.Failed, out.Attempted),
		checkf("loss_decreased", timed[0].Loss < lossDecrease*timed[0].Loss0,
			"final_loss %g is not below %g of the untrained model's %g", timed[0].Loss, lossDecrease, timed[0].Loss0))
	if parity && !w.Engine && !w.Async {
		c, err := checkEngineParity(w, o.seed, o.outDir)
		if err != nil {
			return nil, err
		}
		out.Checks = append(out.Checks, c)
	}

	timedRounds := float64(w.Rounds - out.Warmup)
	col := func(reps []*repResult, f func(*repResult) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, rep := range reps {
			xs[i] = f(rep)
		}
		return xs
	}
	p50 := func(r *repResult) float64 { return median(r.RoundS[out.Warmup:]) }
	values := map[string]func(*repResult) float64{
		"setup_s":                  func(r *repResult) float64 { return r.SetupS },
		"round_s_p50":              p50,
		"rounds_per_s":             func(r *repResult) float64 { return timedRounds / r.WallS },
		"cpu_s_per_round":          func(r *repResult) float64 { return r.CPUS / timedRounds },
		"uplink_bytes_per_round":   func(r *repResult) float64 { return float64(r.UpBytes) / float64(w.Rounds) },
		"downlink_bytes_per_round": func(r *repResult) float64 { return float64(r.DnBytes) / float64(w.Rounds) },
		"final_loss":               func(r *repResult) float64 { return r.Loss },
	}
	out.EndToEnd = make(map[string]stat)
	for _, d := range endToEnd {
		out.EndToEnd[d.Name] = statOf(col(timed, values[d.Name]), d.Unit)
	}
	// setup_s wants several set-ups per run and a long repetition
	// affords few: short federations of the same shape top the sample up.
	setups := col(timed, values["setup_s"])
	for len(setups) < setupSamples {
		short := w
		short.Rounds = setupRounds
		rep, err := runRep(short, o, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, rep.SetupS)
	}
	out.EndToEnd["setup_s"] = statOf(setups, "s")
	out.EndToEnd[failedShare] = statOf([]float64{float64(out.Failed) / float64(out.Attempted)}, "ratio")

	if len(traced) > 0 {
		out.PerLayer = make(map[string]stat)
		for _, d := range perLayer {
			out.PerLayer[d.Name] = statOf(col(traced, func(r *repResult) float64 { return r.Layer[d.Name] }), d.Unit)
		}
		overhead := median(col(traced, p50))/out.EndToEnd["round_s_p50"].Median - 1
		out.PerLayer["trace.overhead_share"] = statOf([]float64{overhead}, "ratio")
		last := traced[len(traced)-1]
		out.TraceSelfS = selfByName(last.Spans, w.Rounds)
		if err := writeTrace(filepath.Join(o.outDir, w.Name+".trace.jsonl"), last.Spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *workloadResult) failedChecks() []string {
	var bad []string
	for _, c := range r.Checks {
		if !c.OK {
			bad = append(bad, c.Name+": "+c.Detail)
		}
	}
	return bad
}

// printResult writes `workload metric value unit` rows.
func printResult(name string, r *workloadResult) {
	row := func(defs []string, m map[string]stat) {
		for _, n := range defs {
			if s, ok := m[n]; ok {
				fmt.Printf("%s %s %s %s\n", name, n, strconv.FormatFloat(s.Median, 'g', -1, 64), s.Unit)
			}
		}
	}
	row(append(namesOf(endToEnd), failedShare), r.EndToEnd)
	row(namesOf(perLayer), r.PerLayer)
}

// readContext records the machine and toolchain the run is taken on.
func readContext(o options) runContext {
	c := runContext{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Workers: o.workers,
		GoVersion: runtime.Version(), Seed: o.seed, Quick: o.quick,
		CPUModel: "unknown", GitCommit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				c.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			c.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	c.Noisy = c.Load1 > float64(c.NProc)/2
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		c.GitCommit = strings.TrimSpace(string(b))
	}
	return c
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Uint64("seed", 1, "seeds data, problem, upload choice and attacks")
	seconds := fs.Float64("seconds", 0, "keep starting repetitions for this long (default: a fixed 3 timed + 1 traced)")
	trace := fs.Int("trace", -1, "driver contract: 0 prints end-to-end metrics, 1 per-layer metrics, as one JSON line")
	workers := fs.Int("workers", engineWorkers, "engine workers (more than GOMAXPROCS is refused)")
	quick := fs.Bool("quick", false, "smoke shapes: d=2048, R=8, one repetition")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json, traces and spill segments")
	spec := fs.String("benchmark-json", "BENCHMARK.json", "metric bounds for -compare")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, *spec, fs.Arg(0), fs.Arg(1))
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	if *workers < 1 || *workers > procs {
		return fmt.Errorf("-workers %d outside [1, GOMAXPROCS=%d]: workers beyond the cores would measure the scheduler, not the program", *workers, procs)
	}
	o := options{seed: *seed, workers: *workers, outDir: *outDir, quick: *quick}
	if err := os.MkdirAll(filepath.Join(o.outDir, "spill"), 0o755); err != nil {
		return err
	}

	var selected []workload
	for _, w := range workloads(*quick) {
		if *name == "" || *name == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}

	more := func(n int, _ time.Duration) bool { return n < fullReps }
	if *quick {
		more = func(int, time.Duration) bool { return false }
	}
	if *seconds > 0 {
		budget := time.Duration(*seconds * float64(time.Second))
		more = func(_ int, elapsed time.Duration) bool { return elapsed < budget }
	}

	mode, ok := map[int]int{-1: traceOnce, 0: traceNone, 1: tracePairs}[*trace]
	if !ok {
		return fmt.Errorf("-trace takes 0 or 1, got %d", *trace)
	}
	out := resultFile{Context: readContext(o), Workloads: make(map[string]*workloadResult)}
	var failed []string
	for _, w := range selected {
		// The driver's untraced runs verify engine parity; its traced
		// runs spend their time on traced repetitions instead.
		r, err := measureWorkload(w, o, mode, *trace != 1, more)
		if err != nil {
			return err
		}
		out.Workloads[w.Name] = r
		printResult(w.Name, r)
		for _, msg := range r.failedChecks() {
			failed = append(failed, w.Name+": "+msg)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if *trace >= 0 {
		if err := printDriverLine(out.Workloads[selected[0].Name], *trace == 1, len(failed) == 0); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("verification failed:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

// printDriverLine prints the one JSON object the driver reads from the
// last line of standard output.
func printDriverLine(r *workloadResult, traced, correct bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		for _, d := range perLayer {
			if driverPerLayer[d.Name] {
				metrics[d.Name] = value{r.PerLayer[d.Name].Median, d.Unit}
			}
		}
	} else {
		for _, d := range endToEnd {
			if d.Name != finalLoss {
				metrics[d.Name] = value{r.EndToEnd[d.Name].Median, d.Unit}
			}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
