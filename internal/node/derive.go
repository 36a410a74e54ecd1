package node

import (
	"fmt"

	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/randx"
)

// PSConfigFor and ClientConfigFor derive one node's configuration from
// the validated federation spec (core.Config.Validate, or fedms.Resolve
// above it) — the same value the in-process engine runs from, which is
// what makes a federation launched through them bit-identical to the
// engine: Byzantine identities, rules, oracle, sampling and codec seeds
// are all read from cfg, never restated. What is left for the caller is
// deployment only: addresses, Key, Timeout, tolerance (Tolerant,
// MinModels, Redial), ingest limits, Faults, crash and checkpoint
// hooks, EvalEvery and LatencyScale.

// PSConfigFor returns server id's configuration under cfg.
func PSConfigFor(cfg core.Config, id int) (PSConfig, error) {
	if err := distributable(cfg); err != nil {
		return PSConfig{}, err
	}
	ps := PSConfig{
		ID:         id,
		Clients:    cfg.Clients,
		Rounds:     cfg.Rounds,
		ServerRule: cfg.ServerFilter,
		LossOracle: cfg.LossOracle,
		Shards:     cfg.Shards,
		Async:      cfg.Async,
		Window:     cfg.Window,
		Staleness:  cfg.Staleness,
		SpillDir:   cfg.SpillDir,
		SpillMem:   cfg.SpillMem,
		Seed:       cfg.Seed,
		Logger:     cfg.Logger,
		Obs:        cfg.Obs,
		TraceSink:  cfg.TraceSink,
	}
	if cfg.IsByzantine(id) {
		ps.Attack = cfg.Attack
	}
	var err error
	ps.DownlinkCodec, err = newCodec(cfg.DownlinkCodec, randx.Derive(cfg.Seed, fmt.Sprintf("downlink/ps%d", id)))
	return ps, err
}

// ClientConfigFor returns client id's configuration under cfg, training
// learner. Servers is the caller's to fill.
func ClientConfigFor(cfg core.Config, id int, learner core.Learner) (ClientConfig, error) {
	if err := distributable(cfg); err != nil {
		return ClientConfig{}, err
	}
	cl := ClientConfig{
		ID:                    id,
		Learner:               learner,
		Rounds:                cfg.Rounds,
		LocalSteps:            cfg.LocalSteps,
		Clients:               cfg.Clients,
		Participation:         cfg.Participation,
		FullUpload:            cfg.Upload == core.FullUpload,
		Filter:                cfg.Filter,
		LossOracle:            cfg.LossOracle,
		Schedule:              cfg.Schedule,
		AcceptEncodedDownlink: !cfg.DownlinkCodec.IsDense(),
		Async:                 cfg.Async,
		Window:                cfg.Window,
		Staleness:             cfg.Staleness,
		Seed:                  cfg.Seed,
		Logger:                cfg.Logger,
		Obs:                   cfg.Obs,
		TraceSink:             cfg.TraceSink,
	}
	if cfg.IsByzantineClient(id) {
		cl.UploadAttack = cfg.ClientAttack
	}
	var err error
	cl.Codec, err = newCodec(cfg.UploadCodec, core.ClientCodecSeed(cfg.Seed, id))
	return cl, err
}

// distributable rejects the one engine setting the wire protocol has no
// counterpart for.
func distributable(cfg core.Config) error {
	if cfg.Upload == core.RoundRobinUpload {
		return fmt.Errorf("node: the distributed runtime has no %s upload", cfg.Upload)
	}
	return nil
}

// newCodec instantiates spec, or returns nil for dense (the v1 wire).
func newCodec(spec compress.Spec, seed uint64) (compress.Codec, error) {
	if spec.IsDense() {
		return nil, nil
	}
	return spec.NewCodec(seed)
}
