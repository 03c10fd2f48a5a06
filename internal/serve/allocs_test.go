//go:build !race

// The race detector's sync.Pool drops a random share of Puts, so the
// serving allocation count is only deterministic in a normal build.

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// discardWriter is a ResponseWriter that keeps only its header map.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestInspectAllocs is the serving allocation guard: one /v1/inspect
// decision on a 25-entry queue, through ServeHTTP, must stay within the 9
// allocations it makes with the hand-rolled codec. The codec makes one,
// the decoded queue; the rest are the state build, Explain's outputs and
// the route instrumentation. It made 28 when encoding/json decoded the
// request and writeJSON encoded the response.
func TestInspectAllocs(t *testing.T) {
	const maxAllocs = 9
	h := testHandler(t)
	defer h.Close()
	body, err := json.Marshal(queueRequest(25))
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/inspect", rd)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		rd.Reset(body)
		h.ServeHTTP(w, req)
	}
	serve() // warm up the pool and the request counter
	allocs := testing.AllocsPerRun(200, serve)
	if allocs > maxAllocs {
		t.Fatalf("/v1/inspect allocated %.1f times per decision, want <= %d", allocs, maxAllocs)
	}
	t.Logf("%.1f allocs per decision", allocs)
}
