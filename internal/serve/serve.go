// Package serve exposes a trained SchedInspector model over HTTP/JSON —
// the integration surface a production scheduler (e.g. a Slurm plugin, the
// paper's §7 future-work item) would call at each scheduling point. The
// handler is stateless per request and safe for concurrent use.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// InspectRequest is the scheduling context of one decision, mirroring
// sim.State. Times are seconds; processor counts are absolute.
type InspectRequest struct {
	Job struct {
		Wait  float64 `json:"wait"`
		Est   float64 `json:"est"`
		Procs int     `json:"procs"`
	} `json:"job"`
	Rejections      int         `json:"rejections"`
	FreeProcs       int         `json:"free_procs"`
	TotalProcs      int         `json:"total_procs"`
	BackfillEnabled bool        `json:"backfill_enabled"`
	BackfillCount   int         `json:"backfill_count"`
	Queue           []QueueItem `json:"queue"`
}

// QueueItem is one waiting job in the request.
type QueueItem struct {
	Wait  float64 `json:"wait"`
	Est   float64 `json:"est"`
	Procs int     `json:"procs"`
}

// InspectResponse is the inspector's verdict.
type InspectResponse struct {
	Reject     bool    `json:"reject"`      // sampled decision (deployment mode)
	RejectProb float64 `json:"reject_prob"` // the policy's rejection probability
}

// SimulateRequest describes one what-if simulation: a job sequence to
// schedule on a virtual cluster under a base policy, with the served
// inspector optionally second-guessing every scheduling decision.
type SimulateRequest struct {
	// Policy is the base scheduling policy by its Table 3 abbreviation
	// (FCFS, LCFS, SJF, SQF, SAF, SRF, F1). Default SJF.
	Policy       string `json:"policy"`
	Backfill     bool   `json:"backfill"`
	Conservative bool   `json:"conservative"`
	MaxProcs     int    `json:"max_procs"`

	// Inspector selects how the served model drives the decisions:
	// "stochastic" (default) samples the policy distribution, "greedy"
	// takes the argmax, and "off" runs the base policy alone.
	Inspector string `json:"inspector"`
	Seed      int64  `json:"seed"` // RNG seed for stochastic mode

	Jobs []SimJob `json:"jobs"` // sorted by submit time
}

// SimJob is one job of a simulation request. IDs are assigned by arrival
// order (1-based).
type SimJob struct {
	Submit float64 `json:"submit"`
	Run    float64 `json:"run"`
	Est    float64 `json:"est"`
	Procs  int     `json:"procs"`
}

// SimulateResponse summarizes the simulated schedule.
type SimulateResponse struct {
	Jobs        int     `json:"jobs"`
	Inspections int     `json:"inspections"`
	Rejections  int     `json:"rejections"`
	Backfills   int     `json:"backfills"`
	IdleDelay   float64 `json:"idle_delay"`
	AvgBSLD     float64 `json:"avg_bsld"`
	AvgWait     float64 `json:"avg_wait"`
	MaxBSLD     float64 `json:"max_bsld"`
	Util        float64 `json:"util"`
	Makespan    float64 `json:"makespan"`
}

// InfoResponse describes the served model.
type InfoResponse struct {
	FeatureMode string  `json:"feature_mode"`
	Metric      string  `json:"metric"`
	MaxProcs    int     `json:"max_procs"`
	MaxEst      float64 `json:"max_est"`
	Params      int     `json:"policy_params"`
}

// Handler serves one inspector model.
type Handler struct {
	// The served model, published as one atomic snapshot (model + derived
	// constants + generation). Read-only paths (/v1/info, /v1/simulate,
	// Current) load it lock-free; only Swap stores it, under decideMu.
	snap atomic.Pointer[snapshot]
	mux  *http.ServeMux

	// decideMu is the decision lock. Every /v1/inspect decision (sample +
	// record), every model swap and Close run under it, so decisions and
	// swaps share one total order: each decision is computed, recorded and
	// answered against exactly one snapshot, the explain/trace meta headers
	// never tear against the records around them, and the served model's
	// sampling RNG is drawn in that same order.
	decideMu sync.Mutex
	closed   bool          // guarded by decideMu; set by Close
	audit    *json.Encoder // guarded by decideMu; decision audit log (JSONL), nil unless enabled

	// Hot reload (see reload.go). reloader is set once before serving.
	reloadMu sync.Mutex // serializes reloads, NOT held while serving
	reloader func() (*core.Inspector, error)

	// Telemetry.
	reg           *obs.Registry
	reqMu         sync.Mutex
	reqCounts     map[string]*obs.Counter // "route code" -> requests_total series
	accepts       *obs.Counter
	rejects       *obs.Counter
	probHist      *obs.Histogram
	params        *obs.Gauge
	reloads       *obs.Counter
	loadFailures  *obs.Counter
	generation    *obs.Gauge
	waveSize      *obs.Histogram
	lockWait      *obs.Histogram
	auditFailures *obs.Counter

	// Per-decision explainability (see explain.go): the last decisions in
	// a bounded ring served over GET /v1/explain/last.
	explains *obs.ExplainRecorder
	decSeq   atomic.Int64 // lifetime decision sequence for explain records

	// Always-on binary flight recorder (see trace.go): every served
	// decision is also encoded into the arena-backed trace ring, dumped
	// over GET /v1/trace/snapshot and optionally streamed to a .ftrace
	// sink. The ring has its own lock, taken only briefly per record.
	ring *obs.TraceRing
}

// snapshot is the atomically-published serving state: the model plus every
// per-decision constant derived from it. Readers load it once and see one
// consistent model+meta; a swap installs a complete replacement, never a
// field-by-field mutation.
type snapshot struct {
	insp   *core.Inspector
	maxRej int
	gen    int64 // 1 = boot model, +1 per swap
}

// NewHandler wraps the inspector in an http.Handler with routes
// POST /v1/inspect, POST /v1/simulate, GET /v1/info (also served at
// /healthz) and GET /metrics (Prometheus text exposition). Call Close after
// the HTTP server has drained to refuse any later decisions.
func NewHandler(insp *core.Inspector) *Handler {
	h := &Handler{
		mux:       http.NewServeMux(),
		reg:       obs.NewRegistry(),
		reqCounts: make(map[string]*obs.Counter),
		explains:  obs.NewExplainRecorder(DefaultServeExplainCap),
		ring:      obs.NewTraceRing(0, 0),
	}
	h.snap.Store(&snapshot{insp: insp, maxRej: insp.Norm.MaxRejections, gen: 1})
	h.ring.Instrument(h.reg)
	h.explains.SetMeta(insp.Mode.FeatureNames(), insp.Mode.String(), insp.Norm.MaxRejections)
	h.ring.SetMeta(insp.Mode.FeatureNames(), insp.Mode.String(), insp.Norm.MaxRejections)
	h.accepts = h.reg.Counter("schedinspector_inspect_decisions_total",
		"Inspection verdicts served, by outcome.", obs.Labels{"verdict": "accept"})
	h.rejects = h.reg.Counter("schedinspector_inspect_decisions_total",
		"Inspection verdicts served, by outcome.", obs.Labels{"verdict": "reject"})
	// The reject ratio derives from the two verdict counters at scrape
	// time; a per-decision read-modify-write of a gauge would interleave
	// under concurrency and publish torn ratios.
	h.reg.GaugeFunc("schedinspector_inspect_reject_ratio",
		"Fraction of served decisions that rejected (lifetime).", nil,
		func() float64 {
			total := h.accepts.Value() + h.rejects.Value()
			if total == 0 {
				return 0
			}
			return h.rejects.Value() / total
		})
	h.probHist = h.reg.Histogram("schedinspector_inspect_reject_prob",
		"Distribution of the policy's rejection probability.",
		obs.LinearBuckets(0.1, 0.1, 9), nil)
	h.params = h.reg.Gauge("schedinspector_model_params",
		"Parameters of the served policy network.", nil)
	h.params.Set(float64(insp.Agent.Policy.NumParams()))
	h.reloads = h.reg.Counter("schedinspector_model_reloads_total",
		"Successful model hot-swaps since start.", nil)
	h.loadFailures = h.reg.Counter("schedinspector_model_load_failures_total",
		"Model reload attempts that failed validation or loading.", nil)
	h.generation = h.reg.Gauge("schedinspector_model_generation",
		"Generation of the served model (1 = boot model, +1 per swap).", nil)
	h.generation.Set(1)
	// Every decision is answered by its own forward, so the wave-size
	// family observes 1 per decision. It stays registered because readers
	// of the exposition (perfbench) count a missing family as a failure.
	h.waveSize = h.reg.Histogram("schedinspector_inspect_wave_size",
		"Decisions answered per model forward (always 1; kept for existing readers).",
		obs.ExponentialBuckets(1, 2, 10), nil)
	h.lockWait = h.reg.Histogram("schedinspector_inspect_coalesce_seconds",
		"Time a decision waited to enter the decision lock.",
		obs.ExponentialBuckets(1e-6, 4, 10), nil)
	// Scrape-time quantile gauges over the live lock-wait histogram,
	// through the same estimator the fleet plane uses on parsed
	// expositions — a dashboard reading either surface sees the same
	// number for the same buckets. GaugeFunc evaluates at render, so the
	// gauges cost nothing between scrapes; NaN (empty histogram) renders
	// as NaN, which every Prometheus-compatible consumer treats as absent.
	h.reg.GaugeFunc("schedinspector_inspect_coalesce_seconds_p50",
		"Median wait to enter the decision lock (lifetime buckets).", nil,
		func() float64 { return h.lockWait.Quantile(0.5) })
	h.reg.GaugeFunc("schedinspector_inspect_coalesce_seconds_p99",
		"p99 wait to enter the decision lock (lifetime buckets).", nil,
		func() float64 { return h.lockWait.Quantile(0.99) })
	h.auditFailures = h.reg.Counter("schedinspector_audit_write_failures_total",
		"Decision audit log encode/write failures (the decision still serves).", nil)
	h.mux.HandleFunc("/v1/inspect", h.instrument("/v1/inspect", h.inspect))
	h.mux.HandleFunc("/v1/simulate", h.instrument("/v1/simulate", h.simulate))
	h.mux.HandleFunc("/v1/info", h.instrument("/v1/info", h.info))
	h.mux.HandleFunc("/healthz", h.instrument("/healthz", h.info))
	h.mux.HandleFunc("/v1/admin/reload", h.instrument("/v1/admin/reload", h.reload))
	h.mux.HandleFunc("/v1/explain/last", h.instrument("/v1/explain/last", h.explainLast))
	h.mux.HandleFunc("/v1/trace/snapshot", h.instrument("/v1/trace/snapshot", h.traceSnapshot))
	h.mux.Handle("/metrics", h.reg.Handler())
	return h
}

// Registry exposes the handler's metrics registry so callers (e.g.
// cmd/inspectord) can add process-level series to the same /metrics page.
func (h *Handler) Registry() *obs.Registry { return h.reg }

// SetAuditSink enables the decision audit log: one JSON line per
// /v1/inspect decision, recording the request, the normalized feature
// vector the model saw, and the verdict. Pass nil to disable.
func (h *Handler) SetAuditSink(w io.Writer) {
	h.decideMu.Lock()
	if w == nil {
		h.audit = nil
	} else {
		h.audit = json.NewEncoder(w)
	}
	h.decideMu.Unlock()
}

// Close refuses every later decision: /v1/inspect answers 503 from then
// on. Call it after the HTTP server has shut down. Swaps still apply after
// Close, and closing twice is a no-op.
func (h *Handler) Close() {
	h.decideMu.Lock()
	h.closed = true
	h.decideMu.Unlock()
}

// statusWriter captures the response code for the request counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it supports streaming, so
// wrapping a route does not silently strip http.Flusher.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a route with a request counter (by status code) and a
// latency histogram.
func (h *Handler) instrument(route string, fn http.HandlerFunc) http.HandlerFunc {
	hist := h.reg.Histogram("schedinspector_http_request_duration_seconds",
		"HTTP request latency by route.", nil, obs.Labels{"route": route})
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		hist.Observe(time.Since(start).Seconds())
		h.requestCounter(route, sw.code).Inc()
	}
}

// requestCounter lazily creates the requests_total series for route+code
// (codes are not enumerable up front).
func (h *Handler) requestCounter(route string, code int) *obs.Counter {
	key := route + " " + strconv.Itoa(code)
	h.reqMu.Lock()
	defer h.reqMu.Unlock()
	c := h.reqCounts[key]
	if c == nil {
		c = h.reg.Counter("schedinspector_http_requests_total",
			"HTTP requests served, by route and status code.",
			obs.Labels{"route": route, "code": strconv.Itoa(code)})
		h.reqCounts[key] = c
	}
	return c
}

// auditRecord is one line of the decision audit log.
type auditRecord struct {
	Time       string    `json:"time"`
	Request    any       `json:"request"`
	Features   []float64 `json:"features"`
	RejectProb float64   `json:"reject_prob"`
	Reject     bool      `json:"reject"`
}

// recordDecision updates the decision metrics, the explain ring, and (if
// enabled) the audit log. maxRej is the served model's rejection cap,
// read from the same snapshot the decision was computed under. It runs
// under the decision lock, before the decision's response is written.
func (h *Handler) recordDecision(req *InspectRequest, feat, logits, probs []float64, action, maxRej int, reject bool) {
	prob := probs[core.ActionReject]
	if reject {
		h.rejects.Inc()
	} else {
		h.accepts.Inc()
	}
	h.probHist.Observe(prob)

	util := 0.0
	if req.TotalProcs > 0 {
		util = 1 - float64(req.FreeProcs)/float64(req.TotalProcs)
	}
	rec := obs.ExplainRecord{
		Seq:  int(h.decSeq.Add(1)) - 1,
		Wait: req.Job.Wait, Procs: req.Job.Procs, Est: req.Job.Est,
		Rejections: req.Rejections, MaxRejections: maxRej,
		QueueLen: len(req.Queue) + 1, FreeProcs: req.FreeProcs,
		TotalProcs: req.TotalProcs, Utilization: util,
		Features: feat, Logits: logits, Probs: probs,
		Action: action, Sampled: true, Rejected: reject,
	}
	h.ring.EmitDecision(&rec) // copies; the explain ring takes ownership below
	h.explains.Record(rec)

	if h.audit != nil {
		err := h.audit.Encode(auditRecord{
			Time:       time.Now().UTC().Format(time.RFC3339Nano),
			Request:    req,
			Features:   feat,
			RejectProb: prob,
			Reject:     reject,
		})
		if err != nil {
			// The sink tore mid-stream (disk full, closed pipe). The decision
			// still serves; the gap is observable instead of silent.
			h.auditFailures.Inc()
		}
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

func (h *Handler) inspect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req InspectRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Job.Procs <= 0 || req.Job.Est <= 0 || req.TotalProcs <= 0 {
		http.Error(w, "job.procs, job.est and total_procs must be positive", http.StatusBadRequest)
		return
	}
	if req.FreeProcs < 0 || req.FreeProcs > req.TotalProcs {
		http.Error(w, "free_procs out of range", http.StatusBadRequest)
		return
	}

	queue := make([]sim.QueueItem, 0, len(req.Queue))
	for _, q := range req.Queue {
		queue = append(queue, sim.QueueItem{Wait: q.Wait, Est: q.Est, Procs: q.Procs})
	}
	st := sim.NewState(workload.Job{Est: req.Job.Est, Procs: req.Job.Procs},
		req.Job.Wait, req.Rejections, req.FreeProcs, req.TotalProcs,
		req.BackfillEnabled, req.BackfillCount, queue)

	// Sample and record under the decision lock, then reply. By the time
	// the client has its verdict, the metrics, explain ring, trace ring and
	// audit log all reflect it.
	enter := time.Now()
	h.decideMu.Lock()
	if h.closed {
		h.decideMu.Unlock()
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	h.lockWait.Observe(time.Since(enter).Seconds())
	h.waveSize.Observe(1)
	snap := h.snap.Load()
	action, feat, logits, probs := snap.insp.Explain(st, false)
	reject := action == core.ActionReject
	h.recordDecision(&req, feat, logits, probs, action, snap.maxRej, reject)
	h.decideMu.Unlock()
	writeJSON(w, InspectResponse{Reject: reject, RejectProb: probs[core.ActionReject]})
}

// simulate runs a full what-if schedule over the submitted job sequence by
// driving a live sim.Env: the environment yields at every scheduling
// decision and the served model answers it, exactly as a production
// deployment would. The request's inspector mode picks the decision rule;
// "off" runs the base policy straight through.
func (h *Handler) simulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req SimulateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if req.MaxProcs <= 0 {
		http.Error(w, "max_procs must be positive", http.StatusBadRequest)
		return
	}
	if len(req.Jobs) == 0 {
		http.Error(w, "jobs must be non-empty", http.StatusBadRequest)
		return
	}
	if req.Policy == "" {
		req.Policy = "SJF"
	}
	pol, err := sched.ByName(req.Policy)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	mode := req.Inspector
	if mode == "" {
		mode = "stochastic"
	}
	switch mode {
	case "stochastic", "greedy", "off":
	default:
		http.Error(w, fmt.Sprintf("unknown inspector mode %q (want stochastic, greedy or off)", mode),
			http.StatusBadRequest)
		return
	}

	jobs := make([]workload.Job, len(req.Jobs))
	for i, j := range req.Jobs {
		jobs[i] = workload.Job{ID: i + 1, Submit: j.Submit, Run: j.Run, Est: j.Est, Procs: j.Procs}
	}
	cfg := sim.Config{
		MaxProcs:     req.MaxProcs,
		Policy:       pol,
		Backfill:     req.Backfill,
		Conservative: req.Conservative,
	}
	if err := sim.ValidateJobs(jobs, req.MaxProcs); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cfg.NoValidate = true

	var res sim.Result
	if mode == "off" {
		// No decisions to answer: the straight-through run never yields.
		if res, err = sim.Run(jobs, cfg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	} else {
		// Clone from the current snapshot so a long simulation shares no
		// buffers with the live serving path; stochastic mode draws from a
		// request-seeded stream so responses are reproducible.
		clone := h.snap.Load().insp.Clone(rand.New(rand.NewSource(req.Seed)))
		decide := clone.Stochastic()
		if mode == "greedy" {
			decide = clone.Greedy()
		}
		env := sim.NewEnv()
		st, done, err := env.Reset(jobs, cfg)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for !done {
			st, done = env.Step(decide(st))
		}
		res = env.Result()
	}

	sum := res.Summary(req.MaxProcs)
	writeJSON(w, SimulateResponse{
		Jobs:        sum.Jobs,
		Inspections: res.Inspections,
		Rejections:  res.Rejections,
		Backfills:   res.Backfills,
		IdleDelay:   res.IdleDelay,
		AvgBSLD:     sum.AvgBSLD,
		AvgWait:     sum.AvgWait,
		MaxBSLD:     sum.MaxBSLD,
		Util:        sum.Util,
		Makespan:    sum.Makespan,
	})
}

func (h *Handler) info(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	insp := h.snap.Load().insp
	writeJSON(w, InfoResponse{
		FeatureMode: insp.Mode.String(),
		Metric:      insp.Norm.Metric.String(),
		MaxProcs:    insp.Norm.MaxProcs,
		MaxEst:      insp.Norm.MaxEst,
		Params:      insp.Agent.Policy.NumParams(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
