package tensor

import (
	"math"
	"math/rand"
)

// FillUniform fills t with samples from U[lo, hi) drawn from rng.
func (t *Tensor) FillUniform(rng *rand.Rand, lo, hi float32) {
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + rng.Float32()*span
	}
}

// FillNormal fills t with samples from N(mean, stddev²) drawn from rng.
func (t *Tensor) FillNormal(rng *rand.Rand, mean, stddev float32) {
	for i := range t.data {
		t.data[i] = mean + float32(rng.NormFloat64())*stddev
	}
}

// FillHe fills t with He-normal initialised weights for a layer with fanIn
// inputs. This is the standard initialisation for ReLU-activated layers and
// is what the nn package uses for both convolutional and dense weights.
func (t *Tensor) FillHe(rng *rand.Rand, fanIn int) {
	if fanIn < 1 {
		fanIn = 1
	}
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	t.FillNormal(rng, 0, std)
}
