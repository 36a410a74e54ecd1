package experiments

import (
	"fmt"
	"io"

	"fedms"
	"fedms/internal/attack"
)

// Sweep support: run a grid of configuration variations and tabulate
// final accuracies. The headline instance is BetaEpsilonSweep, which
// substantiates the paper's §VI-B conclusion that the trim rate β must
// be at least the Byzantine share ε.

// Axis is one sweep dimension.
type Axis struct {
	Name   string
	Values []AxisValue
}

// AxisValue is one setting of an axis: a label plus a config mutation.
type AxisValue struct {
	Label string
	Apply func(*fedms.Config)
}

// Cell is one grid point's outcome.
type Cell struct {
	Labels   []string
	FinalAcc float64
}

// SweepResult is the full grid.
type SweepResult struct {
	AxisNames []string
	Cells     []Cell
}

// Sweep runs the cartesian product of the axes over the base config.
func Sweep(base fedms.Config, axes []Axis) (*SweepResult, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("experiments: Sweep needs at least one axis")
	}
	for _, ax := range axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("experiments: axis %q has no values", ax.Name)
		}
	}
	res := &SweepResult{}
	for _, ax := range axes {
		res.AxisNames = append(res.AxisNames, ax.Name)
	}
	idx := make([]int, len(axes))
	for {
		cfg := base
		labels := make([]string, len(axes))
		for d, ax := range axes {
			v := ax.Values[idx[d]]
			labels[d] = v.Label
			v.Apply(&cfg)
		}
		run, err := fedms.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep cell %v: %w", labels, err)
		}
		res.Cells = append(res.Cells, Cell{Labels: labels, FinalAcc: run.FinalAccuracy()})

		// Advance the odometer.
		d := len(axes) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(axes[d].Values) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return res, nil
		}
	}
}

// Lookup returns the cell with the given labels.
func (r *SweepResult) Lookup(labels ...string) (Cell, bool) {
	for _, c := range r.Cells {
		if len(c.Labels) != len(labels) {
			continue
		}
		match := true
		for i := range labels {
			if c.Labels[i] != labels[i] {
				match = false
				break
			}
		}
		if match {
			return c, true
		}
	}
	return Cell{}, false
}

// WriteMatrix renders a two-axis sweep as a matrix (first axis = rows).
func (r *SweepResult) WriteMatrix(w io.Writer, title string) error {
	if len(r.AxisNames) != 2 {
		return fmt.Errorf("experiments: WriteMatrix requires exactly 2 axes, have %d", len(r.AxisNames))
	}
	if title != "" {
		if _, err := fmt.Fprintln(w, title); err != nil {
			return err
		}
	}
	// Collect ordered unique labels per axis.
	var rows, cols []string
	seenR, seenC := map[string]bool{}, map[string]bool{}
	for _, c := range r.Cells {
		if !seenR[c.Labels[0]] {
			seenR[c.Labels[0]] = true
			rows = append(rows, c.Labels[0])
		}
		if !seenC[c.Labels[1]] {
			seenC[c.Labels[1]] = true
			cols = append(cols, c.Labels[1])
		}
	}
	if _, err := fmt.Fprintf(w, "%14s", r.AxisNames[0]+`\`+r.AxisNames[1]); err != nil {
		return err
	}
	for _, c := range cols {
		if _, err := fmt.Fprintf(w, "%10s", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "%14s", row); err != nil {
			return err
		}
		for _, col := range cols {
			cell, ok := r.Lookup(row, col)
			if !ok {
				if _, err := fmt.Fprintf(w, "%10s", "-"); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%10.3f", cell.FinalAcc); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// BetaEpsilonSweep reproduces the paper's §VI-B design rule — the trim
// rate β must be at least the Byzantine share ε — as a matrix of final
// accuracies over β ∈ {0, 0.1, 0.2, 0.3} × ε ∈ {0%, 10%, 20%, 30%}
// under the Random attack. Cells with β ≥ ε should sit at the clean
// ceiling; cells with β < ε should collapse.
func BetaEpsilonSweep(o Options) (*SweepResult, error) {
	o = o.withDefaults()
	base := baseConfig(o, 10)
	base.Attack = attack.Random{}

	betaAxis := Axis{Name: "beta"}
	for _, beta := range []float64{0, 0.1, 0.2, 0.3} {
		b := beta
		label := fmt.Sprintf("b=%.1f", b)
		betaAxis.Values = append(betaAxis.Values, AxisValue{
			Label: label,
			Apply: func(c *fedms.Config) {
				if b == 0 {
					c.FilterRule = "mean"
				} else {
					c.FilterRule = fmt.Sprintf("trim:%g", b)
				}
			},
		})
	}
	epsAxis := Axis{Name: "eps"}
	for _, epsPct := range []int{0, 10, 20, 30} {
		e := epsPct
		epsAxis.Values = append(epsAxis.Values, AxisValue{
			Label: fmt.Sprintf("eps=%d%%", e),
			Apply: func(c *fedms.Config) {
				c.NumByzantine = c.Servers * e / 100
				if c.NumByzantine == 0 {
					c.Attack = attack.None{}
				}
			},
		})
	}
	return Sweep(base, []Axis{betaAxis, epsAxis})
}
