// Package fedflags is the one command-line binding of the federation
// spec: the flags fedms-node and fedms-sim share are declared here,
// once, onto a fedms.Config, and Resolve turns the parsed flags into
// the validated spec both commands run from. A rejection is reported
// under the flag that set the offending field, so neither command
// restates a rule about a shared flag.
package fedflags

import (
	"errors"
	"flag"
	"fmt"

	"fedms"
	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/obs"
)

// The two commands' defaults: the federation's size is the only thing
// that differs (fedms-node's is demo-sized for loopback sockets,
// fedms-sim's is the paper's headline setting), plus the fixed dataset
// noise and evaluation-free engine of the node learners.
var (
	NodeDefaults = fedms.Config{
		Clients: 8, Servers: 3, Rounds: 10, EvalEvery: -1,
		Dataset: fedms.DatasetSpec{Samples: 4000, Noise: 2.0},
	}
	SimDefaults = fedms.Config{
		Clients: 50, Servers: 10, NumByzantine: 2, Rounds: 60,
		Dataset: fedms.DatasetSpec{Samples: 10000},
	}
)

// Binding is a fedms.Config being filled in from a flag set.
type Binding struct {
	// Config starts as the command's defaults; parsing the flag set
	// writes the flag values into it. A command sets the fields its own
	// flags feed directly, before Resolve.
	Config fedms.Config
	// TracePath is -trace: where to write Config.TraceSink (which
	// Resolve creates when the path is set) once the run ends.
	TracePath string

	attack string
	flagOf map[string]string // Config / EngineConfig field → flag name
}

// Bind declares the shared federation flags on fs.
func Bind(fs *flag.FlagSet, defaults fedms.Config) *Binding {
	b := &Binding{Config: defaults, flagOf: map[string]string{}}
	c := &b.Config
	fs.IntVar(&c.Clients, b.Flag("clients", "Clients"), c.Clients, "number of clients K")
	fs.IntVar(&c.Servers, b.Flag("servers", "Servers"), c.Servers, "number of parameter servers P")
	fs.IntVar(&c.NumByzantine, b.Flag("byzantine", "NumByzantine"), c.NumByzantine, "number of Byzantine servers B (must stay below P/2)")
	fs.IntVar(&c.Rounds, b.Flag("rounds", "Rounds"), c.Rounds, "training rounds T")
	fs.IntVar(&c.LocalSteps, b.Flag("steps", "LocalSteps"), 3, "local SGD iterations per round E")
	fs.IntVar(&c.BatchSize, b.Flag("batch", "BatchSize"), 32, "mini-batch size")
	fs.Float64Var(&c.TrimBeta, b.Flag("beta", "TrimBeta"), 0, "client filter trim rate (0 = B/P, negative = vanilla mean)")
	fs.StringVar(&c.FilterRule, b.Flag("filter", "FilterRule", "Filter"), "", "client filter rule spec ("+aggregate.RuleGrammar+"); overrides -beta")
	fs.StringVar(&c.ServerRule, b.Flag("server-rule", "ServerRule", "ServerFilter"), "", "benign servers' aggregation rule spec (same grammar; empty = mean)")
	fs.StringVar(&b.attack, b.Flag("attack", "Attack"), "none", "Byzantine server attack: none|noise|random|safeguard|backward|signflip|zero|alie|ipm|codecpoison")
	fs.Float64Var(&c.LearningRate, b.Flag("lr", "LearningRate"), 0.1, "constant learning rate")
	fs.Float64Var(&c.Dataset.Alpha, "alpha", 10, "Dirichlet D_alpha (<=0 for an IID split)")
	fs.IntVar(&c.Dataset.Samples, "samples", c.Dataset.Samples, "total dataset samples")
	fs.Uint64Var(&c.Seed, b.Flag("seed", "Seed"), 1, "experiment seed; every node of a federation must share it")
	fs.Float64Var(&c.Participation, b.Flag("participation", "Participation"), 1, "fraction of clients active per round, in (0, 1]; inactive clients send skip frames")
	fs.IntVar(&c.Shards, b.Flag("shards", "Shards"), 0, "server-side aggregation shards (>1 streams uploads through the two-tier shard tree; 0/1 unsharded)")
	fs.BoolVar(&c.Async, b.Flag("async", "Async"), false, "bounded-staleness async rounds: each server aggregates what arrives within -window, admitting uploads up to -staleness rounds late")
	fs.DurationVar(&c.Window, b.Flag("window", "Window"), 0, "async per-round aggregation window (0 = default; requires -async)")
	fs.IntVar(&c.Staleness, b.Flag("staleness", "Staleness"), 0, "max rounds an upload may be late and still count, down-weighted 1/(1+s) (requires -async)")
	fs.StringVar(&c.SpillDir, b.Flag("spill-dir", "SpillDir"), "", "directory for the deferred-upload spill segment (requires -async; empty = OS temp dir)")
	fs.IntVar(&c.SpillMem, b.Flag("spill-mem", "SpillMem"), 0, "in-memory byte budget for deferred uploads before spilling to disk (requires -async; 0 = default)")
	fs.StringVar(&c.UploadCodec, b.Flag("codec", "UploadCodec"), "dense", "upload codec spec: dense, topk:R, randk:R or qN, optionally ef+ prefixed (e.g. ef+topk:0.1)")
	fs.StringVar(&c.DownlinkCodec, b.Flag("downlink-codec", "DownlinkCodec"), "dense", "downlink codec spec (same grammar, no ef+; dense keeps the wire byte-identical to v1)")
	fs.StringVar(&b.TracePath, b.Flag("trace", "TraceSink"), "", "write the per-round JSONL trace to this file when the run ends")
	return b
}

// Flag records that the flag called name sets the given spec fields and
// returns name, for use as the name argument of a flag declaration. A
// command calls it for the spec fields its own flags set, so Resolve
// attributes those rejections too.
func (b *Binding) Flag(name string, fields ...string) string {
	for _, f := range fields {
		b.flagOf[f] = name
	}
	return name
}

// Resolve is fedms.Resolve on the parsed flags, with a rejection
// reported under the flag that set the offending field.
func (b *Binding) Resolve() (fedms.EngineConfig, error) {
	if err := b.finish(); err != nil {
		return fedms.EngineConfig{}, err
	}
	ecfg, err := fedms.Resolve(b.Config)
	return ecfg, b.underFlag(err)
}

// BuildEngine is fedms.BuildEngine on the parsed flags, reporting
// rejections like Resolve (which it runs first, before any dataset or
// model is built).
func (b *Binding) BuildEngine() (*fedms.Engine, error) {
	if err := b.finish(); err != nil {
		return nil, err
	}
	eng, err := fedms.BuildEngine(b.Config)
	return eng, b.underFlag(err)
}

// finish completes Config from the flags that are not plain fields.
// Two flags are narrower than their fields: a zero Participation and a
// negative SpillMem mean "the default" and "all to disk" to the
// library, which a command line asks for by leaving the flag out.
func (b *Binding) finish() error {
	c := &b.Config
	var err error
	if c.Attack, err = attack.ByName(b.attack); err != nil {
		return fmt.Errorf("-attack: %w", err)
	}
	if c.Participation == 0 {
		return fmt.Errorf("-participation: must be in (0, 1], got 0")
	}
	if c.SpillMem < 0 {
		return fmt.Errorf("-spill-mem: must be non-negative, got %d", c.SpillMem)
	}
	if b.TracePath != "" && c.TraceSink == nil {
		c.TraceSink = obs.NewTrace(0)
	}
	return nil
}

func (b *Binding) underFlag(err error) error {
	var fe *fedms.FieldError
	if errors.As(err, &fe) && b.flagOf[fe.Field] != "" {
		return fmt.Errorf("-%s: %w", b.flagOf[fe.Field], err)
	}
	return err
}
