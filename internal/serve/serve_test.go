package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

func testHandler(t testing.TB) *Handler {
	t.Helper()
	tr := workload.SDSCSP2Like(500, 3)
	insp := core.NewInspector(rand.New(rand.NewSource(1)), core.ManualFeatures,
		core.NormalizerForTrace(tr, metrics.BSLD), nil)
	return NewHandler(insp)
}

func validRequest() InspectRequest {
	var req InspectRequest
	req.Job.Wait = 120
	req.Job.Est = 3600
	req.Job.Procs = 16
	req.FreeProcs = 32
	req.TotalProcs = 128
	req.Queue = []QueueItem{{Wait: 60, Est: 600, Procs: 4}}
	return req
}

func postInspect(t *testing.T, h http.Handler, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if s, ok := body.(string); ok {
		buf.WriteString(s)
	} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/inspect", &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestInspectEndpoint(t *testing.T) {
	h := testHandler(t)
	rec := postInspect(t, h, validRequest())
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp InspectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RejectProb < 0 || resp.RejectProb > 1 {
		t.Errorf("reject prob %v", resp.RejectProb)
	}
}

func TestInspectSamplesPolicy(t *testing.T) {
	h := testHandler(t)
	req := validRequest()
	rejects := 0
	var prob float64
	const n = 400
	for i := 0; i < n; i++ {
		rec := postInspect(t, h, req)
		var resp InspectResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		prob = resp.RejectProb
		if resp.Reject {
			rejects++
		}
	}
	emp := float64(rejects) / n
	if diff := emp - prob; diff > 0.1 || diff < -0.1 {
		t.Errorf("empirical reject rate %.2f vs policy prob %.2f", emp, prob)
	}
}

// invalidInspectCases are single-field corruptions of validRequest that
// /v1/inspect must answer 400.
var invalidInspectCases = []struct {
	name string
	mut  func(*InspectRequest)
}{
	{"zero procs", func(r *InspectRequest) { r.Job.Procs = 0 }},
	{"zero est", func(r *InspectRequest) { r.Job.Est = 0 }},
	{"zero total", func(r *InspectRequest) { r.TotalProcs = 0 }},
	{"negative free", func(r *InspectRequest) { r.FreeProcs = -1 }},
	{"free over total", func(r *InspectRequest) { r.FreeProcs = 999 }},
}

func TestInspectValidation(t *testing.T) {
	h := testHandler(t)
	for _, c := range invalidInspectCases {
		req := validRequest()
		c.mut(&req)
		if rec := postInspect(t, h, req); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, rec.Code)
		}
	}
	if rec := postInspect(t, h, "{not json"); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", rec.Code)
	}
	// wrong method
	req := httptest.NewRequest(http.MethodGet, "/v1/inspect", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET inspect: status %d, want 405", rec.Code)
	}
}

func validSimRequest() SimulateRequest {
	return SimulateRequest{
		Policy:   "SJF",
		Backfill: true,
		MaxProcs: 64,
		Jobs: []SimJob{
			{Submit: 0, Run: 600, Est: 900, Procs: 48},
			{Submit: 10, Run: 300, Est: 400, Procs: 32},
			{Submit: 20, Run: 100, Est: 120, Procs: 8},
			{Submit: 30, Run: 900, Est: 1000, Procs: 16},
			{Submit: 40, Run: 50, Est: 60, Procs: 4},
		},
	}
}

func postSimulate(t *testing.T, h http.Handler, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if s, ok := body.(string); ok {
		buf.WriteString(s)
	} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeSimulate(t *testing.T, rec *httptest.ResponseRecorder) SimulateResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSimulateOffMatchesSimRun(t *testing.T) {
	h := testHandler(t)
	req := validSimRequest()
	req.Inspector = "off"
	resp := decodeSimulate(t, postSimulate(t, h, req))

	jobs := make([]workload.Job, len(req.Jobs))
	for i, j := range req.Jobs {
		jobs[i] = workload.Job{ID: i + 1, Submit: j.Submit, Run: j.Run, Est: j.Est, Procs: j.Procs}
	}
	res, err := sim.Run(jobs, sim.Config{MaxProcs: req.MaxProcs, Policy: sched.SJF(), Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary(req.MaxProcs)
	if resp.Jobs != sum.Jobs || resp.AvgBSLD != sum.AvgBSLD || resp.AvgWait != sum.AvgWait ||
		resp.Util != sum.Util || resp.Makespan != sum.Makespan || resp.Backfills != res.Backfills {
		t.Errorf("off-mode response %+v does not match direct run %+v / %+v", resp, sum, res)
	}
	if resp.Inspections != 0 || resp.Rejections != 0 {
		t.Errorf("off mode consulted the inspector: %+v", resp)
	}
}

func TestSimulateInspectorModes(t *testing.T) {
	h := testHandler(t)
	for _, mode := range []string{"stochastic", "greedy"} {
		req := validSimRequest()
		req.Inspector = mode
		req.Seed = 7
		resp := decodeSimulate(t, postSimulate(t, h, req))
		if resp.Jobs != len(req.Jobs) {
			t.Errorf("%s: scheduled %d of %d jobs", mode, resp.Jobs, len(req.Jobs))
		}
		if resp.Inspections == 0 {
			t.Errorf("%s: inspector never consulted", mode)
		}
		if resp.Rejections > resp.Inspections {
			t.Errorf("%s: rejections %d > inspections %d", mode, resp.Rejections, resp.Inspections)
		}
		// Identical request, identical seed: the response must reproduce.
		again := decodeSimulate(t, postSimulate(t, h, req))
		if again != resp {
			t.Errorf("%s: responses diverged across identical requests:\n%+v\n%+v", mode, resp, again)
		}
	}
	// Default mode is stochastic with seed 0 — still reproducible.
	req := validSimRequest()
	a := decodeSimulate(t, postSimulate(t, h, req))
	b := decodeSimulate(t, postSimulate(t, h, req))
	if a != b {
		t.Errorf("default mode not reproducible:\n%+v\n%+v", a, b)
	}
}

func TestSimulateValidation(t *testing.T) {
	h := testHandler(t)
	cases := []struct {
		name string
		mut  func(*SimulateRequest)
	}{
		{"zero max_procs", func(r *SimulateRequest) { r.MaxProcs = 0 }},
		{"no jobs", func(r *SimulateRequest) { r.Jobs = nil }},
		{"unknown policy", func(r *SimulateRequest) { r.Policy = "LOTTERY" }},
		{"unknown mode", func(r *SimulateRequest) { r.Inspector = "maybe" }},
		{"oversized job", func(r *SimulateRequest) { r.Jobs[0].Procs = r.MaxProcs + 1 }},
		{"zero procs", func(r *SimulateRequest) { r.Jobs[0].Procs = 0 }},
		{"unsorted submits", func(r *SimulateRequest) { r.Jobs[0].Submit = 999 }},
	}
	for _, c := range cases {
		req := validSimRequest()
		c.mut(&req)
		if rec := postSimulate(t, h, req); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, rec.Code)
		}
	}
	if rec := postSimulate(t, h, "{not json"); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/simulate", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET simulate: status %d, want 405", rec.Code)
	}
}

func TestInfoEndpoint(t *testing.T) {
	h := testHandler(t)
	for _, path := range []string{"/v1/info", "/healthz"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		var info InfoResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		if info.FeatureMode != "manual" || info.Metric != "bsld" {
			t.Errorf("%s: info %+v", path, info)
		}
		if info.MaxProcs != 128 || info.Params == 0 {
			t.Errorf("%s: info %+v", path, info)
		}
	}
	rec := postInspect(t, h, validRequest())
	if rec.Code != http.StatusOK {
		t.Fatal("inspect broken after info")
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/info", strings.NewReader("{}"))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST info: status %d, want 405", rr.Code)
	}
}

func TestConcurrentInspect(t *testing.T) {
	h := testHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(validRequest())
			body := buf.Bytes()
			for i := 0; i < 50; i++ {
				resp, err := http.Post(srv.URL+"/v1/inspect", "application/json", bytes.NewReader(body))
				if err != nil {
					done <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
