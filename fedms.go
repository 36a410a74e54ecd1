// Package fedms is the public API of this Fed-MS implementation — a
// reproduction of "Fed-MS: Fault Tolerant Federated Edge Learning with
// Multiple Byzantine Servers" (ICDCS 2024).
//
// Fed-MS trains a model across K clients and P edge parameter servers
// of which B < P/2 may be Byzantine. Clients upload sparsely (one
// uniformly random PS per round), every PS broadcasts its aggregate,
// and each client recovers a feasible global model with a
// coordinate-wise trimmed mean (trim rate β = B/P).
//
// The package wires together the internal substrates (datasets,
// models, aggregation rules, attacks, and the round engine) behind a
// single Config/Run entry point:
//
//	res, err := fedms.Run(fedms.Config{
//	    Clients: 50, Servers: 10, NumByzantine: 2,
//	    Rounds: 60, LocalSteps: 3, TrimBeta: 0.2,
//	    Attack: fedms.NoiseAttack{},
//	    Dataset: fedms.DatasetSpec{Kind: fedms.DatasetBlobs, Samples: 10000, Alpha: 10},
//	    Model:   fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{64}},
//	    Seed:    1,
//	})
//
// Advanced callers can use BuildEngine to drive rounds manually, or the
// node package's distributed runtime via the fedms-node command.
package fedms

import (
	"fmt"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/data"
	"fedms/internal/metrics"
	"fedms/internal/nn"
	"fedms/internal/obs"
	"fedms/internal/randx"
)

// Re-exported types: these aliases make the full vocabulary of the
// library available to API users without reaching into internal
// packages.
type (
	// Attack is a Byzantine parameter-server behaviour.
	Attack = attack.Attack
	// NoAttack leaves every PS honest.
	NoAttack = attack.None
	// NoiseAttack adds Gaussian noise to the honest aggregate.
	NoiseAttack = attack.Noise
	// RandomAttack replaces the aggregate with U[-10,10] values.
	RandomAttack = attack.Random
	// SafeguardAttack subtracts a scaled pseudo global gradient.
	SafeguardAttack = attack.Safeguard
	// BackwardAttack replays the aggregate from T rounds ago.
	BackwardAttack = attack.Backward
	// SignFlipAttack disseminates the negated aggregate.
	SignFlipAttack = attack.SignFlip
	// ZeroAttack disseminates an all-zeros model.
	ZeroAttack = attack.Zero
	// ALIEAttack is the "a little is enough" colluding attack.
	ALIEAttack = attack.ALIE
	// IPMAttack is the inner-product-manipulation colluding attack.
	IPMAttack = attack.IPM
	// CodecPoisonAttack is the codec-aware sparse-index poisoning
	// attack (ALIE-style shift on the top-k coordinate support).
	CodecPoisonAttack = attack.CodecPoison

	// UploadAttack is a Byzantine *client* behaviour (the two-sided
	// threat model the paper lists as future work).
	UploadAttack = attack.UploadAttack
	// UploadSignFlip uploads the negated local model.
	UploadSignFlip = attack.UploadSignFlip
	// UploadNoise adds Gaussian noise to the upload.
	UploadNoise = attack.UploadNoise
	// UploadRandom replaces the upload with uniform random values.
	UploadRandom = attack.UploadRandom
	// UploadScaled amplifies the local update (model replacement).
	UploadScaled = attack.UploadScaled

	// Rule is a model filter / aggregation rule.
	Rule = aggregate.Rule
	// TrimmedMean is the Fed-MS client-side model filter.
	TrimmedMean = aggregate.TrimmedMean
	// MeanRule is vanilla averaging (no Byzantine tolerance).
	MeanRule = aggregate.Mean
	// MedianRule is the coordinate-wise median baseline.
	MedianRule = aggregate.CoordinateMedian
	// KrumRule is the Krum selection baseline.
	KrumRule = aggregate.Krum
	// GeoMedianRule is the Weiszfeld geometric-median baseline.
	GeoMedianRule = aggregate.GeoMedian
	// MultiKrumRule averages the best-scored Krum selections.
	MultiKrumRule = aggregate.MultiKrum
	// BulyanRule is the two-stage Krum + trimmed-median defence.
	BulyanRule = aggregate.Bulyan
	// ClippingRule is iterative centered clipping.
	ClippingRule = aggregate.CenteredClipping
	// FedGreedRule is the greedy lowest-holdout-loss prefix average
	// (needs a loss oracle; falls back to the coordinate median).
	FedGreedRule = aggregate.FedGreed
	// LossClusterRule is the two-cluster holdout-loss split (needs a
	// loss oracle; falls back to the coordinate median).
	LossClusterRule = aggregate.LossCluster
	// LossEval is a holdout-loss oracle: a deterministic pure function
	// scoring a candidate model vector (see NewHoldoutOracle).
	LossEval = aggregate.LossEval

	// Engine is the synchronized Fed-MS round engine.
	Engine = core.Engine
	// EngineConfig is the low-level engine configuration — validated,
	// it is the resolved federation spec (see Resolve).
	EngineConfig = core.Config
	// FieldError is a configuration rejection naming the field it is
	// about.
	FieldError = core.FieldError
	// RoundStats reports one round's metrics.
	RoundStats = core.RoundStats
	// Learner is the trainable state a client holds.
	Learner = core.Learner
	// UploadStrategy selects sparse (Fed-MS) or full uploading.
	UploadStrategy = core.UploadStrategy

	// Schedule yields per-step learning rates.
	Schedule = nn.Schedule
	// Series is a recorded metric curve.
	Series = metrics.Series
	// Table is a collection of metric curves.
	Table = metrics.Table

	// Registry is the runtime metrics registry (atomic counters,
	// gauges and histograms, Prometheus text export).
	Registry = obs.Registry
	// Trace is the bounded per-round structured event trace (JSONL
	// export).
	Trace = obs.Trace
	// TraceEvent is one trace record.
	TraceEvent = obs.Event
)

// Upload strategies.
const (
	// SparseUpload: each client uploads to one uniformly random PS.
	SparseUpload = core.SparseUpload
	// FullUpload: each client uploads to every PS.
	FullUpload = core.FullUpload
	// RoundRobinUpload: deterministic rotation with exactly balanced
	// server loads (ablation of the random choice).
	RoundRobinUpload = core.RoundRobinUpload
)

// DatasetKind selects the training dataset.
type DatasetKind string

// Supported datasets.
const (
	// DatasetBlobs is the 10-class Gaussian-mixture feature dataset
	// (fast; used for the long federated sweeps).
	DatasetBlobs DatasetKind = "blobs"
	// DatasetSynthImage is the procedurally generated 10-class image
	// dataset standing in for CIFAR-10.
	DatasetSynthImage DatasetKind = "synthimage"
	// DatasetCIFAR10 loads the real CIFAR-10 binary distribution from
	// DatasetSpec.Dir — the paper's actual dataset, for environments
	// that have it on disk.
	DatasetCIFAR10 DatasetKind = "cifar10"
	// DatasetMNIST loads an MNIST-layout IDX directory (MNIST or
	// Fashion-MNIST, plain or gzipped) from DatasetSpec.Dir.
	DatasetMNIST DatasetKind = "mnist"
)

// DatasetSpec configures the dataset and its partition across clients.
type DatasetSpec struct {
	Kind DatasetKind
	// Samples is the total dataset size before the train/test split
	// (default 10000).
	Samples int
	// NumClasses defaults to 10 (the CIFAR-10 class count).
	NumClasses int
	// Features applies to blobs (default 32).
	Features int
	// Resolution and Channels apply to synthimage (defaults 16, 3).
	Resolution int
	Channels   int
	// Noise is the within-class noise level (dataset-specific default).
	// Larger values lower the reachable ceiling accuracy, which is how
	// the harness matches the paper's ~75% CIFAR-10 plateau.
	Noise float64
	// Spread is the class-center spread for blobs (default 1.0).
	Spread float64
	// Alpha is the Dirichlet heterogeneity parameter D_alpha; 0 or
	// negative selects an IID split.
	Alpha float64
	// TrainFrac is the train split fraction (default 0.8).
	TrainFrac float64
	// Dir is the cifar-10-batches-bin directory (cifar10 only).
	Dir string
}

// ModelKind selects the training model.
type ModelKind string

// Supported models.
const (
	// ModelLogistic is multinomial logistic regression (strongly
	// convex; matches the convergence theory's assumptions).
	ModelLogistic ModelKind = "logistic"
	// ModelMLP is a ReLU multilayer perceptron.
	ModelMLP ModelKind = "mlp"
	// ModelSmallCNN is a compact conv-BN-ReLU classifier.
	ModelSmallCNN ModelKind = "smallcnn"
	// ModelMobileNetV2 is the paper's training model (width-scalable).
	ModelMobileNetV2 ModelKind = "mobilenetv2"
)

// ModelSpec configures the model.
type ModelSpec struct {
	Kind ModelKind
	// Hidden lists MLP hidden-layer widths (default [64]).
	Hidden []int
	// WidthMult scales MobileNetV2 channel widths (default 0.25 — the
	// single-CPU-friendly setting; 1.0 is the paper-size network).
	WidthMult float64
}

// Config is the high-level experiment configuration. Zero fields take
// the paper's defaults where one exists.
type Config struct {
	// Clients (K), Servers (P), NumByzantine (B): the paper's headline
	// setting is 50 / 10 / 2.
	Clients      int
	Servers      int
	NumByzantine int
	// ByzantineIDs optionally pins the Byzantine servers.
	ByzantineIDs []int
	// Rounds (T) and LocalSteps (E); the paper uses 60 and 3.
	Rounds     int
	LocalSteps int
	// BatchSize for local SGD (default 32).
	BatchSize int
	// TrimBeta is the filter's trim rate β. Negative selects the
	// vanilla mean filter (the paper's "Vanilla FL" baseline). Zero
	// defaults to B/P (the Fed-MS rule).
	TrimBeta float64
	// FilterRule selects the client-side filter by registry spec —
	// "trim:0.2", "krum:2", "fedgreed", ... (see aggregate.ParseRule
	// for the grammar). It overrides TrimBeta; the Filter field
	// overrides both. Selecting a loss-based rule (fedgreed,
	// losscluster) makes BuildEngine construct a holdout-loss oracle
	// automatically (see HoldoutSamples).
	FilterRule string
	// Filter, when non-nil, overrides TrimBeta and FilterRule with an
	// arbitrary rule (median, Krum, ...).
	Filter Rule
	// Upload defaults to SparseUpload.
	Upload UploadStrategy
	// Participation is the fraction of clients active per round in
	// (0, 1]; zero means full participation.
	Participation float64
	// Shards, when > 1, routes server-side aggregation through the
	// two-tier sharded tree (see core.Config.Shards): uploads stream
	// into S column-range shards, so no server materialises the full
	// K×d matrix. Bit-identical to the unsharded rules for every
	// value; rules without a sharded kernel fall back. 0 or 1 disables
	// sharding.
	Shards int
	// Async switches the round lifecycle from the synchronous barrier
	// to bounded-staleness windowed aggregation (see core.Config.Async):
	// each round a PS aggregates what arrived inside Window, admits
	// uploads up to Staleness rounds late at weight 1/(1+s), and spills
	// further-future arrivals to a bounded buffer. A window of at least
	// one virtual latency scale makes async bit-identical to sync.
	Async bool
	// Window is the per-round aggregation window on the engine's seeded
	// virtual clock (default sched.DefaultLatencyScale/4).
	Window time.Duration
	// Staleness is the admission bound S (0 = only fresh uploads).
	Staleness int
	// SpillDir and SpillMem shape the deferred-upload spill buffer (see
	// core.Config.SpillDir): records beyond SpillMem bytes go to a
	// CRC-framed segment file; negative SpillMem forces all to disk.
	SpillDir string
	SpillMem int
	// Attack is the Byzantine behaviour (default NoAttack).
	Attack Attack
	// NumByzantineClients and ClientAttack enable the two-sided threat
	// model: that many clients upload tampered models. ServerFilter
	// sets the benign parameter servers' aggregation rule (default
	// plain mean, the paper's behaviour; use a robust rule to defend
	// against Byzantine clients).
	NumByzantineClients int
	ByzantineClientIDs  []int
	ClientAttack        UploadAttack
	ServerFilter        Rule
	// ServerRule selects the servers' aggregation rule by registry
	// spec, like FilterRule does for the client filter; the
	// ServerFilter field overrides it.
	ServerRule string
	// HoldoutSamples sizes the server-held holdout split backing the
	// loss oracle: the first HoldoutSamples examples of the test
	// split, deterministically per Seed (default 256, clamped to the
	// test set). Only consulted when a loss-based rule is selected.
	HoldoutSamples int
	// LossOracle overrides the automatically built holdout oracle
	// (see core.Config.LossOracle for the contract).
	LossOracle LossEval
	// LearningRate is a constant LR (default 0.1); Schedule overrides.
	LearningRate float64
	Schedule     Schedule
	// Momentum and WeightDecay configure the clients' local SGD.
	Momentum    float64
	WeightDecay float64
	// ClipNorm, when positive, clips the global gradient norm of each
	// local SGD step.
	ClipNorm float64
	// Augment enables pad-and-crop + horizontal-flip augmentation for
	// image datasets (ignored for feature datasets).
	Augment bool

	Dataset DatasetSpec
	Model   ModelSpec

	// Seed is the root seed for the whole experiment.
	Seed uint64
	// EvalEvery and EvalClients control evaluation (see core.Config).
	EvalEvery   int
	EvalClients int
	// Workers bounds parallel client training.
	Workers int

	// UploadCodec is the codec spec applied to client uploads, e.g.
	// "topk:0.05", "q8" or "ef+topk:0.1" (see compress.ParseSpec for the
	// grammar). Empty or "dense" disables compression and keeps seeded
	// trajectories bit-identical to the uncompressed engine.
	UploadCodec string
	// DownlinkCodec compresses the disseminated global models the same
	// way. Error feedback is rejected here: a broadcast has no
	// per-stream residual.
	DownlinkCodec string

	// Obs, when non-nil, collects the engine's runtime metrics
	// (fedms_engine_*). Observation never perturbs training: seeded
	// runs are bit-identical with or without it.
	Obs *Registry
	// TraceSink, when non-nil, records one TraceEvent per round with
	// stage timings and round statistics; write it out with
	// Trace.WriteJSONL.
	TraceSink *Trace
}

// Result collects a finished run.
type Result struct {
	// Stats holds every round's metrics.
	Stats []RoundStats
	// Accuracy and TrainLoss are the recorded curves (accuracy only on
	// evaluated rounds).
	Accuracy  *Series
	TrainLoss *Series
	// Engine is the finished engine (client models are inspectable).
	Engine *Engine
}

// FinalAccuracy returns the last evaluated test accuracy.
func (r *Result) FinalAccuracy() float64 {
	if r.Accuracy.Len() == 0 {
		panic("fedms: run recorded no evaluations")
	}
	return r.Accuracy.Final()
}

// Run builds the experiment from cfg and executes all rounds.
func Run(cfg Config) (*Result, error) {
	eng, err := BuildEngine(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Engine:    eng,
		Accuracy:  &Series{Name: "accuracy"},
		TrainLoss: &Series{Name: "train_loss"},
	}
	for t := 0; t < eng.Config().Rounds; t++ {
		st := eng.RunRound()
		res.Stats = append(res.Stats, st)
		res.TrainLoss.Append(st.Round, st.TrainLoss)
		if st.Evaluated {
			res.Accuracy.Append(st.Round, st.TestAcc)
		}
	}
	return res, nil
}

// BuildEngine constructs the engine without running it: Resolve's
// configuration plus BuildLearners' learners, sharing one dataset build.
func BuildEngine(cfg Config) (*Engine, error) {
	s := &split{cfg: withDefaults(cfg)}
	ecfg, err := s.resolve()
	if err != nil {
		return nil, err
	}
	learners, err := s.learners()
	if err != nil {
		return nil, err
	}
	return core.NewEngine(ecfg, learners)
}

// Resolve is the configuration half of BuildEngine: it applies the
// defaults, parses the rule and codec specs, derives the filter from
// TrimBeta, builds the holdout oracle when a loss rule needs one, and
// validates. The result is the one description of the federation that
// the engine and every distributed node run from (internal/node derives
// each server's and client's config from it), so everything a run's
// participants must agree on is decided here and nowhere else.
//
// A rejection about one field is a *FieldError naming it, in Config's
// spelling for the spec fields parsed here and EngineConfig's for the
// rest.
func Resolve(cfg Config) (EngineConfig, error) {
	return (&split{cfg: withDefaults(cfg)}).resolve()
}

// BuildLearners is the other half: the K client learners (dataset,
// partition, models) that cfg describes.
func BuildLearners(cfg Config) ([]Learner, error) {
	return (&split{cfg: withDefaults(cfg)}).learners()
}

// split is a Config (defaults applied) with its train/test datasets,
// built on first use so that resolve — which needs the test split only
// for a loss rule's oracle — and learners share one build.
type split struct {
	cfg         Config
	train, test *data.Dataset
}

func (s *split) build() error {
	if s.train != nil {
		return nil
	}
	var err error
	s.train, s.test, err = buildDataset(s.cfg.Dataset, s.cfg.Seed)
	return err
}

func specErr(field string, err error) error {
	return &FieldError{Field: field, Err: fmt.Errorf("fedms: %s: %w", field, err)}
}

func (s *split) resolve() (EngineConfig, error) {
	cfg := s.cfg
	var err error
	filter := cfg.Filter
	if filter == nil && cfg.FilterRule != "" {
		if filter, err = aggregate.ParseRule(cfg.FilterRule); err != nil {
			return EngineConfig{}, specErr("FilterRule", err)
		}
	}
	if filter == nil {
		if cfg.TrimBeta < 0 {
			filter = MeanRule{}
		} else {
			beta := cfg.TrimBeta
			if beta == 0 && cfg.Servers > 0 {
				beta = float64(cfg.NumByzantine) / float64(cfg.Servers)
			}
			filter = TrimmedMean{Beta: beta}
		}
	}
	serverFilter := cfg.ServerFilter
	if serverFilter == nil && cfg.ServerRule != "" {
		if serverFilter, err = aggregate.ParseRule(cfg.ServerRule); err != nil {
			return EngineConfig{}, specErr("ServerRule", err)
		}
	}
	sched := cfg.Schedule
	if sched == nil {
		sched = nn.ConstantLR(cfg.LearningRate)
	}
	uploadSpec, err := compress.ParseSpec(cfg.UploadCodec)
	if err != nil {
		return EngineConfig{}, specErr("UploadCodec", err)
	}
	downlinkSpec, err := compress.ParseSpec(cfg.DownlinkCodec)
	if err != nil {
		return EngineConfig{}, specErr("DownlinkCodec", err)
	}
	ecfg, err := core.Config{
		Clients:             cfg.Clients,
		Servers:             cfg.Servers,
		NumByzantine:        cfg.NumByzantine,
		ByzantineIDs:        cfg.ByzantineIDs,
		NumByzantineClients: cfg.NumByzantineClients,
		ByzantineClientIDs:  cfg.ByzantineClientIDs,
		ClientAttack:        cfg.ClientAttack,
		ServerFilter:        serverFilter,
		LossOracle:          cfg.LossOracle,
		Rounds:              cfg.Rounds,
		LocalSteps:          cfg.LocalSteps,
		Upload:              cfg.Upload,
		Participation:       cfg.Participation,
		Shards:              cfg.Shards,
		Async:               cfg.Async,
		Window:              cfg.Window,
		Staleness:           cfg.Staleness,
		SpillDir:            cfg.SpillDir,
		SpillMem:            cfg.SpillMem,
		Attack:              cfg.Attack,
		Filter:              filter,
		Schedule:            sched,
		Seed:                cfg.Seed,
		EvalEvery:           cfg.EvalEvery,
		EvalClients:         cfg.EvalClients,
		Workers:             cfg.Workers,
		UploadCodec:         uploadSpec,
		DownlinkCodec:       downlinkSpec,
		Obs:                 cfg.Obs,
		TraceSink:           cfg.TraceSink,
	}.Validate()
	if err != nil {
		return ecfg, err
	}
	// A loss-based rule without an oracle would silently run its
	// geometry fallback; build the holdout oracle whenever one is
	// needed and not explicitly supplied — last, so every cheap
	// rejection comes before the dataset is built. The holdout split
	// and model instance derive from Seed alone, so every process that
	// resolves the same Config scores identically — bit-parity holds
	// through the oracle path.
	if ecfg.LossOracle == nil && (isLossRule(filter) || isLossRule(serverFilter)) {
		if ecfg.LossOracle, err = s.oracle(); err != nil {
			return ecfg, err
		}
	}
	return ecfg, nil
}

func (s *split) learners() ([]Learner, error) {
	if err := s.build(); err != nil {
		return nil, err
	}
	cfg := s.cfg
	parts, err := buildPartition(s.train, cfg.Dataset, cfg.Clients, cfg.Seed)
	if err != nil {
		return nil, err
	}
	learners := make([]Learner, cfg.Clients)
	for k := 0; k < cfg.Clients; k++ {
		net, err := buildModel(cfg.Model, cfg.Dataset, cfg.Seed)
		if err != nil {
			return nil, err
		}
		var aug *data.Augmenter
		if cfg.Augment && cfg.Dataset.Kind != DatasetBlobs {
			// Standard CIFAR-style augmentation, padding scaled to the
			// input resolution.
			pad := 4
			if cfg.Dataset.Kind == DatasetSynthImage && cfg.Dataset.Resolution < 32 {
				pad = cfg.Dataset.Resolution / 8
			}
			if pad < 1 {
				pad = 1
			}
			aug = data.NewAugmenter(pad, 0.5, randx.Derive(cfg.Seed, fmt.Sprintf("augment/%d", k)))
		}
		learners[k] = core.NewNNLearner(core.NNLearnerConfig{
			Net:         net,
			Train:       s.train.Subset(parts[k]),
			Test:        s.test,
			BatchSize:   cfg.BatchSize,
			Momentum:    cfg.Momentum,
			WeightDecay: cfg.WeightDecay,
			Augment:     aug,
			ClipNorm:    cfg.ClipNorm,
			Seed:        randx.Derive(cfg.Seed, fmt.Sprintf("client/%d", k)),
		})
	}
	return learners, nil
}

func withDefaults(cfg Config) Config {
	if cfg.Clients == 0 {
		cfg.Clients = 50
	}
	if cfg.Servers == 0 {
		cfg.Servers = 10
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 60
	}
	if cfg.LocalSteps == 0 {
		cfg.LocalSteps = 3
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 32
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.1
	}
	if cfg.Attack == nil {
		cfg.Attack = NoAttack{}
	}
	if cfg.Dataset.Kind == "" {
		cfg.Dataset.Kind = DatasetBlobs
	}
	if cfg.Dataset.Samples == 0 {
		cfg.Dataset.Samples = 10000
	}
	if cfg.Dataset.NumClasses == 0 {
		cfg.Dataset.NumClasses = 10
	}
	if cfg.Dataset.Features == 0 {
		cfg.Dataset.Features = 32
	}
	if cfg.Dataset.Resolution == 0 {
		cfg.Dataset.Resolution = 16
	}
	if cfg.Dataset.Channels == 0 {
		cfg.Dataset.Channels = 3
	}
	if cfg.Dataset.TrainFrac == 0 {
		cfg.Dataset.TrainFrac = 0.8
	}
	if cfg.Model.Kind == "" {
		cfg.Model.Kind = ModelMLP
	}
	if len(cfg.Model.Hidden) == 0 {
		cfg.Model.Hidden = []int{64}
	}
	if cfg.Model.WidthMult == 0 {
		cfg.Model.WidthMult = 0.25
	}
	return cfg
}

func buildDataset(spec DatasetSpec, seed uint64) (train, test *data.Dataset, err error) {
	var ds *data.Dataset
	switch spec.Kind {
	case DatasetCIFAR10:
		// The binary distribution ships with its own train/test split.
		return data.LoadCIFAR10(spec.Dir)
	case DatasetMNIST:
		return data.LoadMNIST(spec.Dir)
	case DatasetBlobs:
		ds = data.Blobs(data.BlobsConfig{
			Samples:    spec.Samples,
			NumClasses: spec.NumClasses,
			Features:   spec.Features,
			Noise:      spec.Noise,
			Spread:     spec.Spread,
			Seed:       randx.Derive(seed, "dataset"),
		})
	case DatasetSynthImage:
		ds = data.SynthImage(data.SynthImageConfig{
			Samples:    spec.Samples,
			NumClasses: spec.NumClasses,
			Channels:   spec.Channels,
			Resolution: spec.Resolution,
			Noise:      spec.Noise,
			Seed:       randx.Derive(seed, "dataset"),
		})
	default:
		return nil, nil, fmt.Errorf("fedms: unknown dataset kind %q", spec.Kind)
	}
	train, test = ds.Split(spec.TrainFrac)
	return train, test, nil
}

func buildPartition(train *data.Dataset, spec DatasetSpec, clients int, seed uint64) (data.Partition, error) {
	pseed := randx.Derive(seed, "partition")
	if spec.Alpha > 0 {
		return data.DirichletPartition(train.Y, train.NumClasses, clients, spec.Alpha, pseed), nil
	}
	return data.IIDPartition(train.Len(), clients, pseed), nil
}

func buildModel(spec ModelSpec, ds DatasetSpec, seed uint64) (*nn.Network, error) {
	mseed := randx.Derive(seed, "model")
	switch spec.Kind {
	case ModelLogistic, ModelMLP:
		in := ds.Features
		switch ds.Kind {
		case DatasetSynthImage:
			in = ds.Channels * ds.Resolution * ds.Resolution
		case DatasetCIFAR10:
			in = 3 * 32 * 32
		case DatasetMNIST:
			in = 28 * 28
		}
		if spec.Kind == ModelLogistic {
			return nn.NewLogistic(in, ds.NumClasses, mseed), nil
		}
		return nn.NewMLP(nn.MLPConfig{In: in, Hidden: spec.Hidden, NumClasses: ds.NumClasses, Seed: mseed}), nil
	case ModelSmallCNN, ModelMobileNetV2:
		channels, resolution := ds.Channels, ds.Resolution
		classes := ds.NumClasses
		switch ds.Kind {
		case DatasetSynthImage:
		case DatasetCIFAR10:
			channels, resolution, classes = 3, 32, 10
		case DatasetMNIST:
			channels, resolution, classes = 1, 28, 10
		default:
			return nil, fmt.Errorf("fedms: %s requires an image dataset (synthimage, cifar10 or mnist)", spec.Kind)
		}
		if spec.Kind == ModelSmallCNN {
			return nn.NewSmallCNN(nn.SmallCNNConfig{
				NumClasses: classes,
				InChannels: channels,
				Resolution: resolution,
				Seed:       mseed,
			}), nil
		}
		return nn.NewMobileNetV2(nn.MobileNetV2Config{
			NumClasses: classes,
			InChannels: channels,
			Resolution: resolution,
			WidthMult:  spec.WidthMult,
			Seed:       mseed,
		}), nil
	default:
		return nil, fmt.Errorf("fedms: unknown model kind %q", spec.Kind)
	}
}
