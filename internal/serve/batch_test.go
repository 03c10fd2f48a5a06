package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// equivInspector builds a deterministic inspector: the same seed yields
// identical weights AND an identical sampling stream, so two instances can
// serve as the handler's model and its scalar reference.
func equivInspector(seed int64, mode core.FeatureMode) *core.Inspector {
	tr := workload.SDSCSP2Like(500, 3)
	return core.NewInspector(rand.New(rand.NewSource(seed)), mode,
		core.NormalizerForTrace(tr, metrics.BSLD), nil)
}

// waveRequest varies the scheduling context per index so a request
// sequence exercises distinct feature vectors.
func waveRequest(i int) InspectRequest {
	var req InspectRequest
	req.Job.Wait = 30 + float64(i%11)*45
	req.Job.Est = 300 + float64(i%7)*700
	req.Job.Procs = 1 + i%24
	req.Rejections = i % 4
	req.FreeProcs = (i * 13) % 129
	req.TotalProcs = 128
	req.BackfillEnabled = i%2 == 0
	req.BackfillCount = i % 3
	for q := 0; q < i%5; q++ {
		req.Queue = append(req.Queue, QueueItem{
			Wait: float64(10 * (q + 1)), Est: float64(100 * (q + 1)), Procs: q + 1,
		})
	}
	return req
}

func waveState(req *InspectRequest) *sim.State {
	queue := make([]sim.QueueItem, 0, len(req.Queue))
	for _, q := range req.Queue {
		queue = append(queue, sim.QueueItem{Wait: q.Wait, Est: q.Est, Procs: q.Procs})
	}
	return sim.NewState(workload.Job{Est: req.Job.Est, Procs: req.Job.Procs},
		req.Job.Wait, req.Rejections, req.FreeProcs, req.TotalProcs,
		req.BackfillEnabled, req.BackfillCount, queue)
}

// TestInspectEquivScalarHTTP pins byte-identical responses at the HTTP
// boundary: sequential requests through the handler (one Explain per
// decision under the decision lock) must produce exactly the JSON bodies,
// as encoding/json writes them, that a scalar reference inspector
// predicts.
func TestInspectEquivScalarHTTP(t *testing.T) {
	h := NewHandler(equivInspector(11, core.ManualFeatures))
	defer h.Close()
	ref := equivInspector(11, core.ManualFeatures)

	for i := 0; i < 25; i++ {
		req := waveRequest(i)
		rec := postInspect(t, h, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		action, _, _, probs := ref.Explain(waveState(&req), false)
		want, err := json.Marshal(InspectResponse{
			Reject:     action == core.ActionReject,
			RejectProb: probs[core.ActionReject],
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != string(want)+"\n" {
			t.Fatalf("request %d: body %q, scalar predicts %q", i, got, want)
		}
	}
}

// TestReloadMetaTearRegression reloads across feature modes (8-feature
// manual vs 5-feature compacted) while clients hammer /v1/inspect, then
// checks the explain JSONL sink: every decision line must decode against
// the most recent preceding header. Before swaps were serialized with
// decisions (today both run under the decision lock), Swap updated the
// recorder meta after publishing the model, so a concurrent decision could
// land an 8-feature record under a 5-feature header (and vice versa). Run
// under -race by the Makefile race target.
func TestReloadMetaTearRegression(t *testing.T) {
	manual := equivInspector(1, core.ManualFeatures)
	compact := equivInspector(2, core.CompactedFeatures)
	h := NewHandler(manual)
	defer h.Close()
	var sink bytes.Buffer
	h.explains.SetSink(&sink)

	const clients = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if rec := postInspect(t, h, waveRequest(c*31+i)); rec.Code != http.StatusOK {
					t.Errorf("inspect status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}(c)
	}
	// Pace the swaps against the clients: each swap waits until at least
	// one decision has landed since the previous one, so the swaps cannot
	// all finish before any client gets a decision in.
	lastSeq, deadline := h.decSeq.Load(), time.Now().Add(30*time.Second)
	for i := 0; i < 50; i++ {
		for h.decSeq.Load() == lastSeq && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		lastSeq = h.decSeq.Load()
		if i%2 == 0 {
			h.Swap(compact)
		} else {
			h.Swap(manual)
		}
	}
	close(stop)
	wg.Wait()
	if err := h.explains.SinkErr(); err != nil {
		t.Fatal(err)
	}

	headers, decisions, curFeatures := 0, 0, -1
	sc := bufio.NewScanner(bytes.NewReader(sink.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		switch probe.Kind {
		case "explain_header":
			var hdr struct {
				Features []string `json:"features"`
			}
			if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
				t.Fatal(err)
			}
			curFeatures = len(hdr.Features)
			headers++
		case "decision":
			var dec struct {
				Features []float64 `json:"features"`
			}
			if err := json.Unmarshal(sc.Bytes(), &dec); err != nil {
				t.Fatal(err)
			}
			if len(dec.Features) != curFeatures {
				t.Fatalf("decision %d carries %d features under a %d-feature header",
					decisions, len(dec.Features), curFeatures)
			}
			decisions++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if headers < 2 {
		t.Errorf("stream holds %d headers across 50 mode-changing swaps, want >= 2", headers)
	}
	if decisions == 0 {
		t.Error("no decisions recorded under load")
	}

	page := metricsPage(t, h)
	if !strings.Contains(page, "schedinspector_model_reloads_total 50") {
		t.Errorf("swap count: %s", pageLine(page, "schedinspector_model_reloads_total"))
	}
}

// failAfterWriter accepts the first ok writes, then fails forever —
// an audit sink tearing mid-stream (disk full, closed pipe).
type failAfterWriter struct {
	mu sync.Mutex
	ok int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ok <= 0 {
		return 0, errors.New("audit sink torn")
	}
	w.ok--
	return len(p), nil
}

// TestAuditWriteFailureMidStream pins satellite behavior: when the audit
// sink starts failing mid-stream, decisions keep serving and every dropped
// line is counted instead of vanishing silently.
func TestAuditWriteFailureMidStream(t *testing.T) {
	h := testHandler(t)
	defer h.Close()
	h.SetAuditSink(&failAfterWriter{ok: 3})

	const n = 10
	for i := 0; i < n; i++ {
		if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusOK {
			t.Fatalf("inspect %d failed once the audit sink tore: status %d", i, rec.Code)
		}
	}
	page := metricsPage(t, h)
	if want := "schedinspector_audit_write_failures_total 7"; !strings.Contains(page, want) {
		t.Errorf("want %q (3 of %d lines written), got %s",
			want, n, pageLine(page, "schedinspector_audit_write_failures_total"))
	}
	// Decisions themselves were all still recorded.
	if !strings.Contains(page, `schedinspector_http_requests_total{code="200",route="/v1/inspect"} 10`) {
		t.Errorf("request counter: %s", pageLine(page, "schedinspector_http_requests_total"))
	}
}

// flushRecorder is an httptest.ResponseRecorder that counts Flush calls.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// TestStatusWriterForwardsFlusher pins that instrumenting a route does not
// strip http.Flusher from the response writer.
func TestStatusWriterForwardsFlusher(t *testing.T) {
	sw := &statusWriter{ResponseWriter: &flushRecorder{ResponseRecorder: httptest.NewRecorder()}}
	fl, ok := interface{}(sw).(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	fl.Flush()
	if got := sw.ResponseWriter.(*flushRecorder).flushes; got != 1 {
		t.Errorf("underlying Flush called %d times, want 1", got)
	}
	if sw.Unwrap() != sw.ResponseWriter {
		t.Error("Unwrap does not return the wrapped writer")
	}
	// A non-Flusher underlying writer must not panic.
	plain := &statusWriter{ResponseWriter: httptest.NewRecorder()}
	// httptest.ResponseRecorder implements Flush; wrap it to hide it.
	type bare struct{ http.ResponseWriter }
	plain.ResponseWriter = bare{httptest.NewRecorder()}
	plain.Flush()
}

// TestCloseDrainsAndRejects pins shutdown: Close is idempotent, later
// requests answer 503, and a post-Close Swap still applies.
func TestCloseDrainsAndRejects(t *testing.T) {
	a, b := reloadPair(t)
	h := NewHandler(a)
	if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusOK {
		t.Fatalf("pre-close inspect: %d", rec.Code)
	}
	h.Close()
	h.Close() // idempotent
	if rec := postInspect(t, h, validRequest()); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-close inspect status %d, want 503", rec.Code)
	}
	h.Swap(b)
	page := metricsPage(t, h)
	if !strings.Contains(page, "schedinspector_model_generation 2") {
		t.Errorf("post-close swap not applied: %s", pageLine(page, "schedinspector_model_generation"))
	}
}
