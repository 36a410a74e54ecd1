// Command fedms-sim runs one configurable Fed-MS simulation and prints
// per-round metrics.
//
// Example (the paper's headline setting, scaled to this machine):
//
//	fedms-sim -clients 50 -servers 10 -byzantine 2 -rounds 60 \
//	          -attack random -filter trim:0.2 -alpha 10
//
// Use -filter mean for the vanilla-FL baseline (plain averaging, no
// Byzantine defence).
package main

import (
	"flag"
	"fmt"
	"os"

	"fedms/cmd/internal/fedflags"
	"fedms/internal/metrics"
	"fedms/internal/plot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedms-sim:", err)
		os.Exit(1)
	}
}

// options is the shared federation spec plus this command's own flags.
type options struct {
	spec     *fedflags.Binding
	ckptPath string
	plot     bool
}

// declareFlags declares the shared federation flags (fedflags) and this
// command's own on fs.
func declareFlags(fs *flag.FlagSet) *options {
	o := &options{spec: fedflags.Bind(fs, fedflags.SimDefaults)}
	cfg := &o.spec.Config
	fs.StringVar((*string)(&cfg.Dataset.Kind), "dataset", "blobs", "dataset: blobs|synthimage|cifar10")
	fs.StringVar(&cfg.Dataset.Dir, "data-dir", "", "data directory (cifar10 dataset)")
	fs.Float64Var(&cfg.Dataset.Noise, "noise", 0, "within-class noise level (0 = dataset default)")
	fs.StringVar((*string)(&cfg.Model.Kind), "model", "mlp", "model: mlp|smallcnn|mobilenetv2")
	fs.IntVar(&cfg.EvalEvery, "eval", 5, "evaluate every N rounds")
	fs.StringVar(&o.ckptPath, "ckpt", "", "save the final consensus model to this checkpoint file")
	fs.BoolVar(&o.plot, "plot", false, "render the accuracy curve as an ASCII chart at the end")
	return o
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("fedms-sim", flag.ContinueOnError)
	o := declareFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, cfg := o.spec, &o.spec.Config
	eng, err := spec.BuildEngine()
	if err != nil {
		return err
	}
	// An async engine keeps a spill segment on disk until closed.
	defer func() {
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
	}()
	ecfg := eng.Config()
	fmt.Printf("fed-ms: K=%d P=%d B=%d (byzantine ids %v) T=%d E=%d filter=%s attack=%s upload=%s codec=%s dim=%d\n",
		ecfg.Clients, ecfg.Servers, ecfg.NumByzantine, ecfg.ByzantineIDs,
		ecfg.Rounds, ecfg.LocalSteps, ecfg.Filter.Name(), ecfg.Attack.Name(), ecfg.Upload, ecfg.UploadCodec, eng.Dim())

	tbl := metrics.NewTable("")
	accSeries := tbl.Add("test_acc")
	fmt.Printf("%6s  %10s  %9s  %9s  %12s  %9s\n",
		"round", "train_loss", "test_loss", "test_acc", "upload_flts", "spread")
	for t := 0; t < ecfg.Rounds; t++ {
		st := eng.RunRound()
		if st.Evaluated {
			accSeries.Append(st.Round, st.TestAcc)
		}
		if st.Evaluated {
			fmt.Printf("%6d  %10.4f  %9.4f  %9.4f  %12d  %9.3f\n",
				st.Round, st.TrainLoss, st.TestLoss, st.TestAcc, st.UploadFloats, st.ModelSpread)
		} else {
			fmt.Printf("%6d  %10.4f  %9s  %9s  %12d  %9.3f\n",
				st.Round, st.TrainLoss, "-", "-", st.UploadFloats, st.ModelSpread)
		}
	}
	loss, acc := eng.Evaluate()
	fmt.Printf("final: test_loss=%.4f test_acc=%.4f\n", loss, acc)

	if spec.TracePath != "" {
		if err := ecfg.TraceSink.WriteFile(spec.TracePath); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("wrote %d trace events to %s\n", ecfg.TraceSink.Len(), spec.TracePath)
	}

	if o.plot && accSeries.Len() > 0 {
		if err := plot.Render(os.Stdout, tbl, plot.Options{Width: 64, Height: 12, YMin: 0, YMax: 1}); err != nil {
			return err
		}
	}

	if o.ckptPath != "" {
		meta := map[string]string{"model": string(cfg.Model.Kind), "dataset": string(cfg.Dataset.Kind), "attack": ecfg.Attack.Name(), "filter": ecfg.Filter.Name()}
		if err := eng.SaveConsensus(o.ckptPath, meta); err != nil {
			return fmt.Errorf("save checkpoint: %w", err)
		}
		fmt.Printf("saved consensus model (%d params) to %s\n", eng.Dim(), o.ckptPath)
	}
	return nil
}
