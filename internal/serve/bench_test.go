package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/workload"
)

// Serving-throughput benchmarks: /v1/inspect through NewHandler at 1, 64
// and 512 concurrent in-process clients. Results are archived in
// BENCH_serve.json by `make bench-serve` and gated advisorily by
// `make bench-serve-check`; each benchmark reports decisions/s and the p99
// request latency alongside the standard ns/op.

func benchInspector() *core.Inspector {
	tr := workload.SDSCSP2Like(500, 3)
	return core.NewInspector(rand.New(rand.NewSource(17)), core.ManualFeatures,
		core.NormalizerForTrace(tr, metrics.BSLD), nil)
}

// benchInspect drives b.N requests through target from the given number of
// concurrent clients, reporting decisions/s and p99 request latency.
func benchInspect(b *testing.B, clients int, target http.Handler) {
	b.Helper()
	body, err := json.Marshal(validRequest())
	if err != nil {
		b.Fatal(err)
	}
	if clients > b.N {
		clients = b.N
	}
	lat := make([][]int64, clients)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < clients; c++ {
		n := b.N / clients
		if c < b.N%clients {
			n++
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			ls := make([]int64, 0, n)
			for i := 0; i < n; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/inspect", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				t0 := time.Now()
				target.ServeHTTP(rec, req)
				ls = append(ls, time.Since(t0).Nanoseconds())
				if rec.Code != http.StatusOK {
					b.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
			lat[c] = ls
		}(c, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	all := make([]int64, 0, b.N)
	for _, ls := range lat {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		b.ReportMetric(float64(all[(len(all)-1)*99/100]), "p99-ns")
	}
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "decisions/s")
	}
}

func benchHandler(b *testing.B, clients int) {
	h := NewHandler(benchInspector())
	defer h.Close()
	benchInspect(b, clients, h)
}

func BenchmarkInspectC1(b *testing.B)   { benchHandler(b, 1) }
func BenchmarkInspectC64(b *testing.B)  { benchHandler(b, 64) }
func BenchmarkInspectC512(b *testing.B) { benchHandler(b, 512) }
