package core

import "fedms/internal/checkpoint"

// SaveConsensus saves the engine's mean client model — the natural
// "trained global model" artifact of a finished run — in the
// internal/checkpoint format, with round and seed metadata.
func (e *Engine) SaveConsensus(path string, meta map[string]string) error {
	st := &checkpoint.State{
		Round:  e.sc.Round(),
		Seed:   e.cfg.Seed,
		Meta:   meta,
		Params: e.MeanClientParams(),
	}
	return checkpoint.SaveFile(path, st)
}
