package fleet

import (
	"encoding/json"
	"math"
	"time"
)

// FleetStatus is the /v1/fleet document: per-target latest values and
// derived rates, the cross-rank dist summary, active alerts, and rule
// bookkeeping. Every float in it is finite — NaN/Inf derivations are
// omitted rather than breaking encoding/json.
type FleetStatus struct {
	NowUnix   float64        `json:"now_unix"`
	WindowSec float64        `json:"window_sec"`
	Targets   []TargetStatus `json:"targets"`
	Dist      *FleetDist     `json:"dist,omitempty"`
	Alerts    []Alert        `json:"alerts"`
	Rules     []RuleStatus   `json:"rules"`
}

// TargetStatus is one process's aggregated view.
type TargetStatus struct {
	Name       string  `json:"name"`
	Addr       string  `json:"addr"`
	Kind       string  `json:"kind"`
	Up         bool    `json:"up"`
	LastErr    string  `json:"last_error,omitempty"`
	LastOKUnix float64 `json:"last_scrape_unix,omitempty"`
	Points     int     `json:"points"`
	// Latest holds current gauge values, Rates per-second counter
	// derivatives over the window, Quantiles windowed histogram
	// estimates keyed "<family>/p50" and "<family>/p99".
	Latest    map[string]float64 `json:"latest,omitempty"`
	Rates     map[string]float64 `json:"rates,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
	// OnlineHistory is the target's /v1/online/history document, passed
	// through verbatim (inspectord only).
	OnlineHistory json.RawMessage `json:"online_history,omitempty"`
}

// FleetDist is the cross-rank view of the distributed trainer: one entry
// per train-worker target plus the skew ratio the straggler rule keys on.
type FleetDist struct {
	Workers        int                `json:"workers"`
	EpochRate      float64            `json:"epoch_rate,omitempty"`
	StragglerRates map[string]float64 `json:"straggler_rates,omitempty"`
	ExchangeP99s   map[string]float64 `json:"exchange_p99s,omitempty"`
	// SkewRatio is max straggler rate over the mean of the other ranks;
	// 1.0 is perfectly even, values past ~2 mean one rank is starving.
	// Capped at 1e6 when the peers report zero wait (the ratio is
	// otherwise unbounded and +Inf does not survive JSON).
	SkewRatio float64 `json:"skew_ratio,omitempty"`
	MaxRank   string  `json:"max_rank,omitempty"`
}

// Families aggregated per target. Gauges report their latest value;
// counters a windowed rate; histograms windowed p50/p99.
var (
	statusGauges = []string{
		"schedinspector_inspect_reject_ratio",
		"schedinspector_model_generation",
		"schedinspector_online_state",
		"schedinspector_online_window_records",
		"schedinspector_ftrace_ring_records",
		"schedinspector_rollout_workers",
		"schedinspector_goroutines",
		"schedinspector_heap_alloc_bytes",
	}
	statusCounters = []string{
		"schedinspector_inspect_decisions_total",
		"schedinspector_http_requests_total",
		"schedinspector_dist_epochs_total",
		"schedinspector_dist_bytes_sent_total",
		"schedinspector_dist_bytes_received_total",
		"schedinspector_dist_peer_failures_total",
		"schedinspector_online_promotions_total",
		"schedinspector_online_rollbacks_total",
		"schedinspector_ftrace_sink_errors_total",
		"schedinspector_ftrace_ring_evicted_total",
		"schedinspector_audit_write_failures_total",
		"schedinspector_model_reloads_total",
	}
	statusHistograms = []string{
		"schedinspector_inspect_coalesce_seconds",
		"schedinspector_http_request_duration_seconds",
		"schedinspector_dist_exchange_seconds",
		"schedinspector_dist_straggler_seconds",
		"schedinspector_rollout_trajectory_seconds",
	}
)

func putFinite(m map[string]float64, key string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		m[key] = v
	}
}

// Status snapshots the whole plane. Safe to call concurrently with the
// poll loop; each target's state is read under its own lock.
func (p *Poller) Status() *FleetStatus {
	winSec := p.cfg.Window.Seconds()
	fs := &FleetStatus{
		NowUnix:   float64(time.Now().UnixNano()) / 1e9,
		WindowSec: winSec,
		Alerts:    p.Alerts(),
		Rules:     p.engine.RuleStatuses(),
	}
	if fs.Alerts == nil {
		fs.Alerts = []Alert{}
	}
	dist := &FleetDist{
		StragglerRates: make(map[string]float64),
		ExchangeP99s:   make(map[string]float64),
	}
	for _, st := range p.states {
		st.mu.Lock()
		ts := TargetStatus{
			Name:       st.target.Name,
			Addr:       st.target.Addr,
			Kind:       st.kind,
			Up:         st.isUp,
			LastErr:    st.lastErr,
			LastOKUnix: st.lastOKUnix,
		}
		if st.onlineHistory != nil {
			ts.OnlineHistory = st.onlineHistory
		}
		st.mu.Unlock()
		if ts.Kind == "" {
			ts.Kind = "unknown"
		}

		h := st.hist
		ts.Points = h.Len()
		if ts.Points > 0 {
			ts.Latest = make(map[string]float64)
			ts.Rates = make(map[string]float64)
			ts.Quantiles = make(map[string]float64)
			for _, g := range statusGauges {
				if v, ok := h.GaugeLatest(g); ok {
					putFinite(ts.Latest, g, v)
				}
			}
			for _, c := range statusCounters {
				putFinite(ts.Rates, c, h.CounterRate(c, winSec))
			}
			for _, hf := range statusHistograms {
				putFinite(ts.Quantiles, hf+"/p50", h.HistQuantile(hf, 0.5, winSec))
				putFinite(ts.Quantiles, hf+"/p99", h.HistQuantile(hf, 0.99, winSec))
			}
		}
		if ts.Kind == "train-worker" {
			dist.Workers++
			putFinite(dist.StragglerRates, ts.Name,
				h.HistSumRate("schedinspector_dist_straggler_seconds", winSec))
			putFinite(dist.ExchangeP99s, ts.Name,
				h.HistQuantile("schedinspector_dist_exchange_seconds", 0.99, winSec))
			if r := h.CounterRate("schedinspector_dist_epochs_total", winSec); !math.IsNaN(r) {
				dist.EpochRate += r
			}
		}
		fs.Targets = append(fs.Targets, ts)
	}
	if dist.Workers > 0 {
		dist.SkewRatio, dist.MaxRank = distSkew(dist.StragglerRates)
		if math.IsNaN(dist.SkewRatio) || math.IsInf(dist.SkewRatio, 0) {
			dist.SkewRatio = 0
		}
		fs.Dist = dist
	}
	return fs
}

// distSkew returns the max rank's straggler rate over the mean of the
// remaining ranks, and that rank's name. Zero when fewer than two ranks
// report.
func distSkew(rates map[string]float64) (float64, string) {
	if len(rates) < 2 {
		return 0, ""
	}
	var maxName string
	maxRate := math.Inf(-1)
	var total float64
	for name, r := range rates {
		total += r
		if r > maxRate {
			maxRate, maxName = r, name
		}
	}
	others := (total - maxRate) / float64(len(rates)-1)
	if others <= 0 {
		if maxRate <= 0 {
			return 1, maxName
		}
		return 1e6, maxName // peers report zero wait: unbounded skew, capped
	}
	if r := maxRate / others; r <= 1e6 {
		return r, maxName
	}
	return 1e6, maxName
}
