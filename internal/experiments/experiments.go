// Package experiments implements the paper's evaluation section: one
// function per figure/table, shared by the fedms-bench command and the
// root-level Go benchmarks. Each experiment returns the same curves the
// paper plots (test accuracy versus training epoch) so EXPERIMENTS.md
// can record paper-versus-measured values.
//
// Substitutions relative to the paper (see DESIGN.md §2): CIFAR-10 →
// the Blobs synthetic 10-class dataset with noise level 2.0 (ceiling
// accuracy ≈ 0.78, matching the paper's ~0.75 plateau), MobileNet V2 →
// a 64-unit MLP for the 60-round × 50-client sweeps. The SynthImage +
// CNN/MobileNetV2 path is exercised by examples and tests.
package experiments

import (
	"fmt"
	"io"
	"time"

	"fedms"
	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/core"
	"fedms/internal/data"
	"fedms/internal/metrics"
	"fedms/internal/netsim"
	"fedms/internal/randx"
	"fedms/internal/theory"
)

// Options scales an experiment.
type Options struct {
	// Rounds overrides the paper's 60 training epochs (useful for
	// quick runs); 0 keeps 60.
	Rounds int
	// Clients/Servers override the paper's K=50, P=10 (0 keeps them).
	Clients int
	Servers int
	// Samples overrides the dataset size (0 = 10000).
	Samples int
	// Seed is the experiment seed (0 = 1).
	Seed uint64
	// EvalEvery controls evaluation density (0 = every 5 rounds).
	EvalEvery int
}

func (o Options) withDefaults() Options {
	if o.Rounds == 0 {
		o.Rounds = 60
	}
	if o.Clients == 0 {
		o.Clients = 50
	}
	if o.Servers == 0 {
		o.Servers = 10
	}
	if o.Samples == 0 {
		o.Samples = 10000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.EvalEvery == 0 {
		o.EvalEvery = 5
	}
	return o
}

// baseConfig is the shared Table II setting: K=50, P=10, E=3, batch 32.
func baseConfig(o Options, alpha float64) fedms.Config {
	return fedms.Config{
		Clients:      o.Clients,
		Servers:      o.Servers,
		Rounds:       o.Rounds,
		LocalSteps:   3,
		BatchSize:    32,
		LearningRate: 0.1,
		Dataset: fedms.DatasetSpec{
			Kind:    fedms.DatasetBlobs,
			Samples: o.Samples,
			Alpha:   alpha,
			Noise:   2.0,
		},
		Model:     fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{64}},
		Seed:      o.Seed,
		EvalEvery: o.EvalEvery,
	}
}

// runCurve executes cfg and appends its accuracy curve to the table.
func runCurve(tbl *metrics.Table, name string, cfg fedms.Config) (*metrics.Series, error) {
	res, err := fedms.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	s := tbl.Add(name)
	for i := range res.Accuracy.Rounds {
		s.Append(res.Accuracy.Rounds[i], res.Accuracy.Values[i])
	}
	return s, nil
}

// fig2Methods are the defences Fig. 2 compares, by curve name and
// client filter spec.
var fig2Methods = []struct{ name, rule string }{
	{"fedms(b=0.2)", "trim:0.2"},
	{"fedms-(b=0.1)", "trim:0.1"},
	{"vanilla", "mean"},
}

// Fig2 reproduces Fig. 2(a-d): test accuracy versus epochs under one of
// the four attacks (noise, random, safeguard, backward) with ε = 20%
// Byzantine PSs and D_alpha = 10, comparing Fed-MS (β = 0.2), Fed-MS⁻
// (β = 0.1) and Vanilla FL.
func Fig2(attackName string, o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	atk, err := attack.ByName(attackName)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(fmt.Sprintf("Fig 2: accuracy vs epochs under %s attack (eps=20%%, D_alpha=10)", attackName))
	b := o.Servers / 5 // ε = 20%
	for _, m := range fig2Methods {
		cfg := baseConfig(o, 10)
		cfg.NumByzantine = b
		cfg.Attack = atk
		cfg.FilterRule = m.rule
		if _, err := runCurve(tbl, m.name, cfg); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// Fig3 reproduces Fig. 3(a-d): accuracy under the Noise attack with the
// Byzantine share ε ∈ {0,10,20,30}%, comparing Fed-MS (β = ε) against
// Vanilla FL.
func Fig3(epsilonPct int, o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	if epsilonPct < 0 || epsilonPct > 40 {
		return nil, fmt.Errorf("experiments: epsilon %d%% out of range", epsilonPct)
	}
	b := o.Servers * epsilonPct / 100
	tbl := metrics.NewTable(fmt.Sprintf("Fig 3: accuracy vs epochs, noise attack, eps=%d%% (B=%d)", epsilonPct, b))

	var atk fedms.Attack = attack.Noise{}
	if b == 0 {
		atk = attack.None{}
	}

	cfg := baseConfig(o, 10)
	cfg.NumByzantine = b
	cfg.Attack = atk
	beta := float64(epsilonPct) / 100
	if b == 0 {
		beta = 0.1 // trmean needs a positive trim to differ from mean; paper keeps Fed-MS's filter on
	}
	cfg.FilterRule = fmt.Sprintf("trim:%g", beta)
	if _, err := runCurve(tbl, fmt.Sprintf("fedms(b=%.2f)", beta), cfg); err != nil {
		return nil, err
	}

	cfg = baseConfig(o, 10)
	cfg.NumByzantine = b
	cfg.Attack = atk
	cfg.FilterRule = "mean"
	if _, err := runCurve(tbl, "vanilla", cfg); err != nil {
		return nil, err
	}
	return tbl, nil
}

// Fig4 reproduces Fig. 4: the per-client class distribution of the
// first 10 clients under Dirichlet parameters D_alpha ∈ {1,5,10,1000}.
// It returns one histogram matrix [client][class] per alpha.
func Fig4(o Options) (map[float64][][]int, error) {
	o = o.withDefaults()
	ds := data.Blobs(data.BlobsConfig{
		Samples: o.Samples,
		Noise:   2.0,
		Seed:    randx.Derive(o.Seed, "dataset"),
	})
	train, _ := ds.Split(0.8)
	out := make(map[float64][][]int, 4)
	for _, alpha := range []float64{1, 5, 10, 1000} {
		parts := data.DirichletPartition(train.Y, train.NumClasses, o.Clients, alpha, randx.Derive(o.Seed, "partition"))
		hist := data.LabelHistogram(parts, train.Y, train.NumClasses)
		if len(hist) > 10 {
			hist = hist[:10]
		}
		out[alpha] = hist
	}
	return out, nil
}

// WriteFig4 renders the Fig. 4 histograms as text.
func WriteFig4(w io.Writer, hists map[float64][][]int) error {
	for _, alpha := range []float64{1, 5, 10, 1000} {
		hist, ok := hists[alpha]
		if !ok {
			continue
		}
		if _, err := fmt.Fprintf(w, "Fig 4: class distribution of first 10 clients, D_alpha=%g\n", alpha); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%8s", "client"); err != nil {
			return err
		}
		for c := 0; c < len(hist[0]); c++ {
			if _, err := fmt.Fprintf(w, "%6d", c); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		for k, row := range hist {
			if _, err := fmt.Fprintf(w, "%8d", k); err != nil {
				return err
			}
			for _, v := range row {
				if _, err := fmt.Fprintf(w, "%6d", v); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fig5 reproduces Fig. 5: Fed-MS accuracy versus epochs for data
// heterogeneity D_alpha ∈ {1,5,10,1000}, with ε = 20% Noise attackers
// and β = 0.2; plus the Vanilla-FL reference the paper discusses.
func Fig5(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	tbl := metrics.NewTable("Fig 5: accuracy vs epochs under various D_alpha (noise attack, eps=20%)")
	b := o.Servers / 5
	for _, alpha := range []float64{1, 5, 10, 1000} {
		cfg := baseConfig(o, alpha)
		cfg.NumByzantine = b
		cfg.Attack = attack.Noise{}
		cfg.FilterRule = "trim:0.2"
		if _, err := runCurve(tbl, fmt.Sprintf("fedms(Da=%g)", alpha), cfg); err != nil {
			return nil, err
		}
	}
	// Vanilla reference at the least and most heterogeneous settings.
	for _, alpha := range []float64{1, 1000} {
		cfg := baseConfig(o, alpha)
		cfg.NumByzantine = b
		cfg.Attack = attack.Noise{}
		cfg.FilterRule = "mean"
		if _, err := runCurve(tbl, fmt.Sprintf("vanilla(Da=%g)", alpha), cfg); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// Theorem1Result captures one point of the convergence-rate check.
type Theorem1Result struct {
	Rounds int
	// Suboptimality is F(w̄_T) − F*.
	Suboptimality float64
	// TimesT is T · suboptimality; a plateauing value indicates the
	// O(1/T) rate of Theorem 1.
	TimesT float64
}

// Theorem1 measures the convergence rate on the strongly convex
// quadratic problem with the theorem's learning-rate schedule, with B
// Byzantine Noise servers filtered at β = B/P. It returns suboptimality
// at geometrically spaced horizons.
func Theorem1(byzantine int, o Options) ([]Theorem1Result, error) {
	o = o.withDefaults()
	horizons := []int{25, 50, 100, 200, 400}
	results := make([]Theorem1Result, 0, len(horizons))
	const servers = 5
	for _, rounds := range horizons {
		// Average over a few seeds to tame SGD noise.
		const seeds = 3
		sub := 0.0
		for s := uint64(0); s < seeds; s++ {
			p, err := theory.NewProblem(theory.ProblemConfig{
				Dim: 20, Clients: 20, Mu: 0.5, L: 4, NoiseStd: 0.3, Spread: 1,
				Seed: o.Seed + 1000*s,
			})
			if err != nil {
				return nil, err
			}
			var atk fedms.Attack = attack.None{}
			if byzantine > 0 {
				atk = attack.Noise{Sigma: 1}
			}
			beta := float64(byzantine) / float64(servers)
			if beta == 0 {
				beta = 0.2
			}
			cfg := core.Config{
				Clients:      20,
				Servers:      servers,
				NumByzantine: byzantine,
				Rounds:       rounds,
				LocalSteps:   2,
				Attack:       atk,
				Filter:       aggregate.TrimmedMean{Beta: beta},
				Schedule:     p.TheorySchedule(2),
				Seed:         o.Seed + 1000*s,
				EvalEvery:    -1,
			}
			eng, err := core.NewEngine(cfg, p.Learners())
			if err != nil {
				return nil, err
			}
			eng.Run()
			sub += p.Suboptimality(eng.MeanClientParams())
		}
		sub /= seeds
		results = append(results, Theorem1Result{
			Rounds:        rounds,
			Suboptimality: sub,
			TimesT:        sub * float64(rounds),
		})
	}
	return results, nil
}

// CommCostResult compares upload traffic of the two strategies.
type CommCostResult struct {
	Dim          int
	SparseFloats int // per round
	FullFloats   int // per round
	Ratio        float64
}

// CommCost verifies the §IV-A communication claim: sparse uploading
// costs K uploads per round versus K·P for the trivial full strategy.
func CommCost(o Options) (CommCostResult, error) {
	o = o.withDefaults()
	run := func(up fedms.UploadStrategy) (int, int, error) {
		cfg := baseConfig(o, 10)
		cfg.Rounds = 1
		cfg.Upload = up
		cfg.EvalEvery = -1
		eng, err := fedms.BuildEngine(cfg)
		if err != nil {
			return 0, 0, err
		}
		st := eng.RunRound()
		return st.UploadFloats, eng.Dim(), nil
	}
	sparse, dim, err := run(fedms.SparseUpload)
	if err != nil {
		return CommCostResult{}, err
	}
	full, _, err := run(fedms.FullUpload)
	if err != nil {
		return CommCostResult{}, err
	}
	return CommCostResult{
		Dim:          dim,
		SparseFloats: sparse,
		FullFloats:   full,
		Ratio:        float64(full) / float64(sparse),
	}, nil
}

// CodecCommCostRow is one codec's measured traffic and accuracy.
type CodecCommCostRow struct {
	Codec string
	// UploadBytes and DownloadBytes are mean per-round wire traffic
	// summed over all clients (the paper's K·d and K·P·d measures,
	// in bytes after compression).
	UploadBytes   int
	DownloadBytes int
	FinalAccuracy float64
	// Reduction is dense upload bytes over this codec's upload bytes.
	Reduction float64
}

// CodecCommCost extends the §IV-A communication accounting from message
// counts to bytes: the same training run is repeated under each upload
// codec spec, recording mean per-round upload traffic and the final
// accuracy the compressed run reaches. The first spec ("dense" by
// default) is the reduction baseline.
func CodecCommCost(codecs []string, o Options) ([]CodecCommCostRow, error) {
	o = o.withDefaults()
	if len(codecs) == 0 {
		codecs = []string{"dense", "q8", "topk:0.1", "ef+topk:0.1"}
	}
	rows := make([]CodecCommCostRow, 0, len(codecs))
	for _, spec := range codecs {
		cfg := baseConfig(o, 10)
		cfg.NumByzantine = o.Servers / 5
		cfg.Attack = attack.Noise{}
		cfg.FilterRule = "trim:0.2"
		cfg.UploadCodec = spec
		res, err := fedms.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: codec %q: %w", spec, err)
		}
		var up, down int
		for _, st := range res.Stats {
			up += st.UploadBytes
			down += st.DownloadBytes
		}
		rows = append(rows, CodecCommCostRow{
			Codec:         spec,
			UploadBytes:   up / len(res.Stats),
			DownloadBytes: down / len(res.Stats),
			FinalAccuracy: res.FinalAccuracy(),
		})
	}
	for i := range rows {
		rows[i].Reduction = float64(rows[0].UploadBytes) / float64(rows[i].UploadBytes)
	}
	return rows, nil
}

// WriteCodecCommCost renders the codec traffic table as text.
func WriteCodecCommCost(w io.Writer, rows []CodecCommCostRow) error {
	if _, err := fmt.Fprintf(w, "%-14s  %14s  %14s  %9s  %9s\n",
		"codec", "upload_B/round", "downlink_B/rnd", "reduction", "final_acc"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-14s  %14d  %14d  %8.1fx  %9.4f\n",
			r.Codec, r.UploadBytes, r.DownloadBytes, r.Reduction, r.FinalAccuracy); err != nil {
			return err
		}
	}
	return nil
}

// FilterAblation compares the Fed-MS trimmed-mean filter against the
// median, Krum and geometric-median baselines under the Random attack —
// the design-choice ablation called out in DESIGN.md.
func FilterAblation(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	tbl := metrics.NewTable("Ablation: client-side filter under random attack (eps=20%)")
	b := o.Servers / 5
	for _, spec := range []string{"trim:0.2", "median", fmt.Sprintf("krum:%d", b), "geomedian", "mean"} {
		rule, err := aggregate.ParseRule(spec)
		if err != nil {
			return nil, err
		}
		cfg := baseConfig(o, 10)
		cfg.NumByzantine = b
		cfg.Attack = attack.Random{}
		cfg.FilterRule = spec
		if _, err := runCurve(tbl, rule.Name(), cfg); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// UploadAblation compares sparse and full uploading under attack: the
// accuracy cost of the paper's communication saving.
func UploadAblation(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	tbl := metrics.NewTable("Ablation: sparse vs full upload (noise attack, eps=20%)")
	b := o.Servers / 5
	for _, up := range []fedms.UploadStrategy{fedms.SparseUpload, fedms.FullUpload} {
		cfg := baseConfig(o, 10)
		cfg.NumByzantine = b
		cfg.Attack = attack.Noise{}
		cfg.FilterRule = "trim:0.2"
		cfg.Upload = up
		if _, err := runCurve(tbl, up.String(), cfg); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// RoundTimeResult reports the network-simulated wall-clock cost of one
// synchronous round under both upload strategies.
type RoundTimeResult struct {
	ModelBytes int
	Sparse     time.Duration
	Full       time.Duration
	Ratio      float64
}

// RoundTimes extends the §IV-A message-count claim into wall-clock
// terms: it builds a heterogeneous edge topology (20–50 ms latency,
// ~2 MB/s links ± 50%) and computes the mean synchronous round
// makespan for sparse vs full uploading of the experiment's model.
func RoundTimes(o Options) (RoundTimeResult, error) {
	o = o.withDefaults()
	cfg := baseConfig(o, 10)
	cfg.Rounds = 1
	cfg.EvalEvery = -1
	eng, err := fedms.BuildEngine(cfg)
	if err != nil {
		return RoundTimeResult{}, err
	}
	modelBytes := eng.Dim() * 8

	top, err := netsim.New(netsim.Config{
		Clients:         o.Clients,
		Servers:         o.Servers,
		BaseLatency:     20 * time.Millisecond,
		LatencyJitter:   30 * time.Millisecond,
		BaseBandwidth:   2 << 20,
		BandwidthSpread: 1.0,
		Seed:            o.Seed,
	})
	if err != nil {
		return RoundTimeResult{}, err
	}
	sparse, full := top.CompareUploads(20, modelBytes, func(round, client, servers int) int {
		return core.SparseUploadChoice(o.Seed, round, client, servers)
	})
	return RoundTimeResult{
		ModelBytes: modelBytes,
		Sparse:     sparse,
		Full:       full,
		Ratio:      float64(full) / float64(sparse),
	}, nil
}

// TwoSidedAblation explores the paper's stated future work (§VII):
// Byzantine clients *and* Byzantine servers at once. 20% of clients
// upload random models; curves compare server-side filters (mean vs
// trimmed mean) with the client-side Fed-MS filter always on, plus a
// both-sides-attacked configuration.
func TwoSidedAblation(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	tbl := metrics.NewTable("Extension: Byzantine clients (20% upload_random) + Byzantine servers")
	byzClients := o.Clients / 5
	byzServers := o.Servers / 5

	trim := fmt.Sprintf("trim:%g", float64(byzClients)/float64(o.Clients))
	type variant struct {
		name       string
		serverRule string
		byzServers int
		attack     fedms.Attack
	}
	variants := []variant{
		{"mean_servers", "mean", 0, attack.None{}},
		{"trimmed_servers", trim, 0, attack.None{}},
		{"both_sides_defended", trim, byzServers, attack.Noise{}},
	}
	for _, v := range variants {
		cfg := baseConfig(o, 10)
		cfg.NumByzantine = v.byzServers
		cfg.Attack = v.attack
		cfg.FilterRule = "trim:0.2"
		cfg.Upload = fedms.FullUpload // robust server rules need to see all clients
		cfg.NumByzantineClients = byzClients
		cfg.ClientAttack = attack.UploadRandom{}
		cfg.ServerRule = v.serverRule
		if _, err := runCurve(tbl, v.name, cfg); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// ColludingAblation evaluates the adaptive colluding attacks (ALIE,
// IPM) that are designed to evade magnitude-based filters, against the
// Fed-MS trimmed mean and the coordinate median.
func ColludingAblation(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	tbl := metrics.NewTable("Extension: colluding attacks (eps=20%) vs filters")
	b := o.Servers / 5
	attacks := []fedms.Attack{attack.ALIE{}, attack.IPM{}}
	for _, atk := range attacks {
		for _, spec := range []string{"trim:0.2", "median", "mean"} {
			rule, err := aggregate.ParseRule(spec)
			if err != nil {
				return nil, err
			}
			cfg := baseConfig(o, 10)
			cfg.NumByzantine = b
			cfg.Attack = atk
			cfg.FilterRule = spec
			if _, err := runCurve(tbl, atk.Name()+"/"+rule.Name(), cfg); err != nil {
				return nil, err
			}
		}
	}
	return tbl, nil
}

// Table2 returns the paper's Table II settings summary as rendered
// text.
func Table2(o Options) string {
	o = o.withDefaults()
	return fmt.Sprintf(`Table II: simulation settings
  Dataset          Blobs synthetic 10-class (CIFAR-10 stand-in; see DESIGN.md)
  Model            MLP-64 (MobileNet V2 stand-in; nn.NewMobileNetV2 available)
  Attack methods   Noise, Random, Safeguard, Backward
  FL settings      K = %d, P = %d, B = %d, E = 3
                   D_alpha = 1, 5, 10, 1000; eps = 0%%, 10%%, 20%%, 30%%
  Rounds           %d
`, o.Clients, o.Servers, o.Servers/5, o.Rounds)
}
