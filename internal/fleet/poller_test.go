package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"schedinspector/internal/obs"
)

// fakeProcess serves an obs registry at /metrics like a real
// schedinspector process, plus an optional /v1/online/history document.
func fakeProcess(t *testing.T, r *obs.Registry, history string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		if err := r.WriteProm(w); err != nil {
			t.Errorf("WriteProm: %v", err)
		}
	})
	if history != "" {
		mux.HandleFunc("/v1/online/history", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(history))
		})
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func hostport(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

func TestPollerEndToEnd(t *testing.T) {
	// An inspectord-shaped process...
	ir := obs.NewRegistry()
	decisions := ir.Counter("schedinspector_inspect_decisions_total", "", obs.Labels{"verdict": "accept"})
	coalesce := ir.Histogram("schedinspector_inspect_coalesce_seconds", "", obs.ExponentialBuckets(1e-6, 4, 10), nil)
	insp := fakeProcess(t, ir,
		`{"candidates":[{"unix":123,"generation":2,"verdict":"promoted","candidate_score":1.5,"serving_score":1.2,"margin":0.3}]}`)

	// ...and a train-worker-shaped one.
	wr := obs.NewRegistry()
	epochs := wr.Counter("schedinspector_dist_epochs_total", "", nil)
	straggler := wr.Histogram("schedinspector_dist_straggler_seconds", "", obs.DefBuckets(), nil)
	worker := fakeProcess(t, wr, "")

	p := NewPoller(Config{
		Targets: []Target{
			{Name: "inspectord", Addr: hostport(t, insp)},
			{Name: "w0", Addr: hostport(t, worker)},
			{Name: "ghost", Addr: "127.0.0.1:1"}, // nothing listens here
		},
		Interval: 50 * time.Millisecond,
		Timeout:  2 * time.Second,
		Window:   time.Minute,
	})

	ctx := context.Background()
	decisions.Add(100)
	coalesce.Observe(0.001)
	epochs.Add(3)
	straggler.Observe(0.2)
	p.RunOnce(ctx)

	decisions.Add(50)
	epochs.Add(2)
	coalesce.Observe(0.002)
	straggler.Observe(0.3)
	time.Sleep(20 * time.Millisecond) // a real interval between the two points
	p.RunOnce(ctx)

	fs := p.Status()
	if len(fs.Targets) != 3 {
		t.Fatalf("targets: %d", len(fs.Targets))
	}
	byName := make(map[string]TargetStatus)
	for _, ts := range fs.Targets {
		byName[ts.Name] = ts
	}

	id := byName["inspectord"]
	if !id.Up || id.Kind != "inspectord" || id.Points != 2 {
		t.Fatalf("inspectord: %+v", id)
	}
	if r := id.Rates["schedinspector_inspect_decisions_total"]; r <= 0 {
		t.Errorf("decision rate: %v (rates: %v)", r, id.Rates)
	}
	if _, ok := id.Quantiles["schedinspector_inspect_coalesce_seconds/p99"]; !ok {
		t.Errorf("coalesce p99 missing: %v", id.Quantiles)
	}
	var hist struct {
		Candidates []struct {
			Verdict string `json:"verdict"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(id.OnlineHistory, &hist); err != nil || len(hist.Candidates) != 1 || hist.Candidates[0].Verdict != "promoted" {
		t.Errorf("online history passthrough: %s (err %v)", id.OnlineHistory, err)
	}

	w0 := byName["w0"]
	if !w0.Up || w0.Kind != "train-worker" {
		t.Fatalf("w0: %+v", w0)
	}
	if r := w0.Rates["schedinspector_dist_epochs_total"]; r <= 0 {
		t.Errorf("epoch rate: %v", r)
	}
	if fs.Dist == nil || fs.Dist.Workers != 1 || fs.Dist.EpochRate <= 0 {
		t.Fatalf("dist summary: %+v", fs.Dist)
	}

	ghost := byName["ghost"]
	if ghost.Up || ghost.LastErr == "" {
		t.Fatalf("ghost: %+v", ghost)
	}
	var downAlert bool
	for _, a := range fs.Alerts {
		if a.Rule == "target-down" && a.Target == "ghost" && a.Severity == SevCritical {
			downAlert = true
		}
	}
	if !downAlert {
		t.Errorf("no target-down alert for ghost: %+v", fs.Alerts)
	}
	var stragglerEvaluated bool
	for _, rs := range fs.Rules {
		if rs.Name == "rank-straggler" && rs.Evaluated >= 2 {
			stragglerEvaluated = true
		}
	}
	if !stragglerEvaluated {
		t.Errorf("rank-straggler not evaluated: %+v", fs.Rules)
	}

	// The document must be valid JSON (no NaN leaks) and the HTTP
	// surface must serve it.
	if _, err := json.Marshal(fs); err != nil {
		t.Fatalf("FleetStatus not marshalable: %v", err)
	}
	api := httptest.NewServer(p.Handler())
	defer api.Close()
	for _, path := range []string{"/v1/fleet", "/metrics", "/"} {
		resp, err := http.Get(api.URL + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v %v", path, err, resp)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(api.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	self, err := ParseProm(mustRead(t, resp))
	if err != nil {
		t.Fatalf("self-exposition unparsable: %v", err)
	}
	upFam := self.Family("schedinspector_fleet_target_up")
	if upFam == nil || len(upFam.Samples) != 3 {
		t.Fatalf("fleet_target_up: %+v", upFam)
	}
	ups := make(map[string]float64)
	for _, sm := range upFam.Samples {
		ups[sm.Labels["target"]] = sm.Value
	}
	if ups["inspectord"] != 1 || ups["w0"] != 1 || ups["ghost"] != 0 {
		t.Errorf("up gauges: %v", ups)
	}

	// The -once table renders without touching the network again.
	var sb strings.Builder
	if err := WriteTable(&sb, fs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"inspectord", "train-worker", "DOWN", "target-down"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func mustRead(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
