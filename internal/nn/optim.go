package nn

// Schedule yields the learning rate for a given global SGD step index.
// The paper's convergence theory uses the inverse-decay schedule
// η_t = φ/(γ+t); practice commonly uses a constant rate.
type Schedule interface {
	LR(step int) float64
}

// ConstantLR is a fixed learning rate.
type ConstantLR float64

// LR implements Schedule.
func (c ConstantLR) LR(int) float64 { return float64(c) }

// InverseDecayLR is the η_t = Phi/(Gamma+t) schedule from Theorem 1
// (φ = 2/μ, γ = max(8L/μ, E)).
type InverseDecayLR struct {
	Phi   float64
	Gamma float64
}

// LR implements Schedule.
func (s InverseDecayLR) LR(step int) float64 {
	return s.Phi / (s.Gamma + float64(step))
}

// SGD is stochastic gradient descent with optional momentum. Velocity
// buffers are keyed per parameter, so one optimizer instance must stay
// attached to one model.
type SGD struct {
	Momentum float64

	velocity map[*Param][]float64
}

// NewSGD constructs an SGD optimizer.
func NewSGD(momentum float64) *SGD {
	return &SGD{
		Momentum: momentum,
		velocity: make(map[*Param][]float64),
	}
}

// Step applies one update with the given learning rate to every
// trainable parameter, consuming the accumulated gradients.
func (s *SGD) Step(params []*Param, lr float64) {
	for _, p := range params {
		if !p.Trainable {
			continue
		}
		w := p.Value.Data()
		g := p.Grad.Data()
		if s.Momentum != 0 {
			v := s.velocity[p]
			if v == nil {
				v = make([]float64, len(w))
				s.velocity[p] = v
			}
			for i := range w {
				v[i] = s.Momentum*v[i] + g[i]
				w[i] -= lr * v[i]
			}
		} else {
			for i := range w {
				w[i] -= lr * g[i]
			}
		}
	}
}

// Reset clears momentum state, zeroing the velocity buffers in place so
// that a reset allocates nothing. Fed-MS clients reset their optimizer
// at the start of each round since the filtered global model restarts
// local training.
func (s *SGD) Reset() {
	for _, v := range s.velocity {
		clear(v)
	}
}
