package nn

import "fmt"

// BatchCache holds the per-layer activation matrices of one ForwardBatch
// call. A zero BatchCache is ready; reusing one across calls amortizes the
// matrix allocations, growing only when a larger batch arrives.
type BatchCache struct {
	as [][]float64 // as[l] is rows x Sizes[l], row-major; as[0] is the input
}

func (c *BatchCache) ensure(m *MLP, rows int) {
	layers := len(m.W)
	if len(c.as) != layers+1 {
		c.as = make([][]float64, layers+1)
	}
	for l := 0; l <= layers; l++ {
		need := rows * m.Sizes[l]
		if cap(c.as[l]) < need {
			c.as[l] = make([]float64, need)
		}
		c.as[l] = c.as[l][:need]
	}
}

// ForwardBatch runs the network on rows stacked inputs (xs row-major,
// rows x InputSize) and returns the stacked outputs (rows x OutputSize).
// The returned slice aliases cache storage when a cache is supplied and is
// valid until the next ForwardBatch with the same cache.
//
// Row r of the result is bit-identical to Forward of row r alone: both run
// every row through the same dense kernel, so batching decisions — the
// rollout driver's one-forward-per-wave path — can never change a sampled
// action or logged probability.
func (m *MLP) ForwardBatch(xs []float64, rows int, cache *BatchCache) []float64 {
	if rows < 0 || len(xs) != rows*m.Sizes[0] {
		panic(fmt.Sprintf("nn: batch input length %d, want %d rows x %d", len(xs), rows, m.Sizes[0]))
	}
	var local BatchCache
	if cache == nil {
		cache = &local
	}
	cache.ensure(m, rows)
	copy(cache.as[0], xs)
	for l := range m.W {
		act := m.Acts[l]
		nIn, nOut := m.Sizes[l], m.Sizes[l+1]
		inAll, outAll := cache.as[l], cache.as[l+1]
		for r := 0; r < rows; r++ {
			out := outAll[r*nOut : (r+1)*nOut]
			dense(out, m.W[l], m.B[l], inAll[r*nIn:(r+1)*nIn])
			for o, s := range out {
				out[o] = act.apply(s)
			}
		}
	}
	return cache.as[len(m.W)]
}
