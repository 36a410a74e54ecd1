package core

import (
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/nn"
)

// Client is one client's side of a round of Algorithm 1 (lines 8-10):
// it trains, tampers with its upload when it is Byzantine, and encodes
// the upload once. The engine runs one per client id and a distributed
// client node runs one, so both runtimes produce the same upload bytes.
type Client struct {
	id      int
	seed    uint64
	learner Learner
	attack  attack.UploadAttack // nil: honest
	codec   compress.Codec      // nil: dense uploads

	params  []float64
	enc     compress.Encoding
	payload []byte // the codec's output, reused across rounds
}

// NewClient returns client id of a federation seeded with seed. atk nil
// makes it honest; codec nil uploads dense models. A codec keeps its
// state (error-feedback residuals) across rounds, so it must not be
// shared with another client.
func NewClient(id int, seed uint64, l Learner, atk attack.UploadAttack, codec compress.Codec) *Client {
	return &Client{id: id, seed: seed, learner: l, attack: atk, codec: codec}
}

// Train runs round t's local training and prepares the upload: steps
// SGD iterations from global step t·steps, the Byzantine client's lie
// (its training state stays honest — what it sends is the lie), and one
// encode. It returns the average training loss.
func (c *Client) Train(t, steps int, schedule nn.Schedule) float64 {
	var start []float64
	if c.attack != nil {
		start = c.learner.Params()
	}
	loss := c.learner.LocalTrain(steps, t*steps, schedule)
	c.params = c.learner.Params()
	if c.attack != nil {
		c.params = c.attack.TamperUpload(&attack.UploadContext{
			Round: t, Client: c.id, Params: c.params, Global: start,
			RNG: uploadAttackRNG(c.seed, t, c.id),
		})
	}
	if c.codec != nil {
		c.enc, c.payload = c.codec.AppendEncode(c.payload[:0], c.params)
	}
	return loss
}

// Upload returns the latest Train's upload: the model, and its codec
// encoding and payload (payload nil without a codec). All are valid
// until the next Train.
func (c *Client) Upload() (params []float64, enc compress.Encoding, payload []byte) {
	return c.params, c.enc, c.payload
}
