package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// servedState is everything a /v1/inspect call may change: the decision
// counters, the explain sequence, both decision rings and the model
// generation.
type servedState struct {
	accepts, rejects float64
	seq              int64
	ring, explained  uint64
	gen, genGauge    float64
}

func observeServed(h *Handler) servedState {
	_, gen := h.Current()
	return servedState{
		accepts: h.accepts.Value(), rejects: h.rejects.Value(),
		seq:  h.decSeq.Load(),
		ring: h.ring.Total(), explained: h.explains.Total(),
		gen: float64(gen), genGauge: h.generation.Value(),
	}
}

// FuzzInspectBody drives arbitrary bodies through the /v1/inspect handler.
// Every body must answer 200 or 400 without panicking; a 400 must leave
// the served state untouched, and a 200 must record exactly one decision.
func FuzzInspectBody(f *testing.F) {
	add := func(req InspectRequest) {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	add(validRequest())
	for i := 0; i < 8; i++ {
		add(waveRequest(i))
	}
	for _, c := range invalidInspectCases {
		req := validRequest()
		c.mut(&req)
		add(req)
	}
	f.Add([]byte("{not json"))

	h := testHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		before := observeServed(h)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/inspect", bytes.NewReader(body)))
		after := observeServed(h)
		switch rec.Code {
		case http.StatusOK:
			if after.seq != before.seq+1 || after.accepts+after.rejects != before.accepts+before.rejects+1 {
				t.Fatalf("200 recorded %d decisions: before %+v after %+v", after.seq-before.seq, before, after)
			}
		case http.StatusBadRequest:
			if after != before {
				t.Fatalf("400 changed served state: before %+v after %+v", before, after)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}

// FuzzSimulateBody drives arbitrary bodies through the /v1/simulate
// handler. Every body must answer 200 or 400 without panicking, and none
// may change the served state: a simulation runs on a clone of the model.
func FuzzSimulateBody(f *testing.F) {
	add := func(mut func(*SimulateRequest)) {
		req := validSimRequest()
		mut(&req)
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, mode := range []string{"", "off", "greedy", "stochastic", "sideways"} {
		add(func(r *SimulateRequest) { r.Inspector = mode })
	}
	add(func(r *SimulateRequest) { r.Conservative = true; r.Seed = 7 })
	add(func(r *SimulateRequest) { r.Backfill = false; r.Policy = "F1" })
	add(func(r *SimulateRequest) { r.Policy = "NOPE" })
	add(func(r *SimulateRequest) { r.MaxProcs = 0 })
	add(func(r *SimulateRequest) { r.Jobs = nil })
	add(func(r *SimulateRequest) { r.Jobs[0].Procs = 65 })
	add(func(r *SimulateRequest) { r.Jobs[1].Submit = -1 })
	add(func(r *SimulateRequest) { r.Jobs[0], r.Jobs[4] = r.Jobs[4], r.Jobs[0] })
	f.Add([]byte("{not json"))

	h := testHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		before := observeServed(h)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		if after := observeServed(h); after != before {
			t.Fatalf("simulate changed served state: before %+v after %+v", before, after)
		}
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
