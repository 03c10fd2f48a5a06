package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The functions below are the scalar one-row-at-a-time Forward,
// ForwardBatch and Backward loops the dense kernel replaced, kept verbatim
// as the oracle: the 4-row kernel must reproduce them bit for bit.

func legacyForward(m *MLP, x []float64, cache *Cache) []float64 {
	cache.ensure(m)
	copy(cache.as[0], x)
	for l := range m.W {
		in := cache.as[l]
		z := cache.zs[l]
		a := cache.as[l+1]
		w := m.W[l]
		nIn := m.Sizes[l]
		for o := range z {
			sum := m.B[l][o]
			row := w[o*nIn : (o+1)*nIn]
			for i, v := range in {
				sum += row[i] * v
			}
			z[o] = sum
			a[o] = m.Acts[l].apply(sum)
		}
	}
	return cache.as[len(m.W)]
}

func legacyForwardBatch(m *MLP, xs []float64, rows int, cache *BatchCache) []float64 {
	cache.ensure(m, rows)
	copy(cache.as[0], xs)
	for l := range m.W {
		w := m.W[l]
		bias := m.B[l]
		act := m.Acts[l]
		nIn, nOut := m.Sizes[l], m.Sizes[l+1]
		inAll, outAll := cache.as[l], cache.as[l+1]
		for r := 0; r < rows; r++ {
			in := inAll[r*nIn : (r+1)*nIn]
			out := outAll[r*nOut : (r+1)*nOut]
			for o := range out {
				sum := bias[o]
				row := w[o*nIn : (o+1)*nIn]
				for i, v := range in {
					sum += row[i] * v
				}
				out[o] = act.apply(sum)
			}
		}
	}
	return cache.as[len(m.W)]
}

func legacyBackward(m *MLP, cache *Cache, dOut []float64, g *Grads) {
	layers := len(m.W)
	delta := cache.dCur[:m.Sizes[layers]]
	for o := range delta {
		delta[o] = dOut[o] * m.Acts[layers-1].derivFromOutput(cache.as[layers][o], cache.zs[layers-1][o])
	}
	for l := layers - 1; l >= 0; l-- {
		in := cache.as[l]
		nIn := m.Sizes[l]
		gw := g.W[l]
		gb := g.B[l]
		for o, d := range delta {
			gb[o] += d
			row := gw[o*nIn : (o+1)*nIn]
			for i, v := range in {
				row[i] += d * v
			}
		}
		if l == 0 {
			break
		}
		prev := cache.dNxt[:nIn]
		clear(prev)
		w := m.W[l]
		for o, d := range delta {
			row := w[o*nIn : (o+1)*nIn]
			for i := range prev {
				prev[i] += d * row[i]
			}
		}
		for i := range prev {
			prev[i] *= m.Acts[l-1].derivFromOutput(cache.as[l][i], cache.zs[l-1][i])
		}
		cache.dCur, cache.dNxt = cache.dNxt, cache.dCur
		delta = cache.dCur[:nIn]
		copy(delta, prev)
	}
}

// sameBits reports the first index where a and b differ bit for bit.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestDenseKernelMatchesLegacy runs the 4-row dense kernel and the verbatim
// scalar loops side by side over many samples — outputs, forward caches and
// accumulated gradients must agree bit for bit. Widths 1-9 take every
// remainder path (0-3 leftover rows, with and without a full block), and
// the paper's 8->32->16->8->2 network is the production shape.
func TestDenseKernelMatchesLegacy(t *testing.T) {
	var shapes [][]int
	for w := 1; w <= 9; w++ {
		shapes = append(shapes, []int{w, w, 10 - w, w}, []int{3, w, 2})
	}
	shapes = append(shapes, []int{8, 32, 16, 8, 2}, []int{8, 32, 16, 8, 1})
	for _, sizes := range shapes {
		for _, hidden := range []Activation{Tanh, ReLU} {
			t.Run(fmt.Sprintf("%v/%s", sizes, hidden), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(sizes)*100 + sizes[1])))
				m := New(rng, sizes, hidden, Identity)
				for l := range m.B {
					for o := range m.B[l] {
						m.B[l][o] = rng.NormFloat64() * 0.1
					}
				}
				checkAgainstLegacy(t, m, rng)
			})
		}
	}
}

func checkAgainstLegacy(t *testing.T, m *MLP, rng *rand.Rand) {
	t.Helper()
	const samples = 40
	nIn, nOut := m.InputSize(), m.OutputSize()
	xs := make([]float64, samples*nIn)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 2
	}
	dOut := make([]float64, nOut)
	got, want := NewGrads(m), NewGrads(m)
	var gc, wc Cache
	for s := 0; s < samples; s++ {
		x := xs[s*nIn : (s+1)*nIn]
		gy := m.Forward(x, &gc)
		wy := legacyForward(m, x, &wc)
		if i, ok := sameBits(gy, wy); !ok {
			t.Fatalf("sample %d: Forward output %d = %v, legacy %v", s, i, gy, wy)
		}
		for l := range gc.zs {
			if i, ok := sameBits(gc.zs[l], wc.zs[l]); !ok {
				t.Fatalf("sample %d: cached pre-activation layer %d index %d differs", s, l, i)
			}
			if i, ok := sameBits(gc.as[l+1], wc.as[l+1]); !ok {
				t.Fatalf("sample %d: cached activation layer %d index %d differs", s, l+1, i)
			}
		}
		for o := range dOut {
			dOut[o] = rng.NormFloat64()
		}
		m.Backward(&gc, dOut, got)
		legacyBackward(m, &wc, dOut, want)
		for l := range got.W {
			if i, ok := sameBits(got.W[l], want.W[l]); !ok {
				t.Fatalf("sample %d: weight gradient layer %d index %d = %v, legacy %v",
					s, l, i, got.W[l][i], want.W[l][i])
			}
			if i, ok := sameBits(got.B[l], want.B[l]); !ok {
				t.Fatalf("sample %d: bias gradient layer %d index %d = %v, legacy %v",
					s, l, i, got.B[l][i], want.B[l][i])
			}
		}
	}
	for _, rows := range []int{1, 5, samples} {
		var gb, wb BatchCache
		g := m.ForwardBatch(xs[:rows*nIn], rows, &gb)
		w := legacyForwardBatch(m, xs[:rows*nIn], rows, &wb)
		for l := range gb.as {
			if i, ok := sameBits(gb.as[l], wb.as[l]); !ok {
				t.Fatalf("rows=%d: ForwardBatch layer %d index %d differs", rows, l, i)
			}
		}
		if i, ok := sameBits(g, w); !ok {
			t.Fatalf("rows=%d: ForwardBatch output %d differs", rows, i)
		}
	}
}
