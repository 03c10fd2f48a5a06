package core

import "schedinspector/internal/obs"

// RolloutMetrics is the obs instrumentation of the parallel rollout engine.
// Attach one (via TrainConfig.Metrics or EvalConfig.Metrics) to export
// worker utilization, per-trajectory rollout latency and baseline-cache
// behavior through an obs.Registry — e.g. mounted at /metrics.
type RolloutMetrics struct {
	// Workers is the effective worker count of the most recent rollout.
	Workers *obs.Gauge
	// WorkerUtilization is busy-time / (workers x wall) of the most recent
	// rollout in [0, 1] — how much of the pool the fan-out actually used.
	WorkerUtilization *obs.Gauge
	// TrajectorySeconds observes the latency of each simulated trajectory
	// (baseline lookup + inspected run).
	TrajectorySeconds *obs.Histogram
	// BaselineCacheSize tracks the bounded baseline cache's entry count.
	BaselineCacheSize *obs.Gauge

	BaselineCacheHits      *obs.Counter
	BaselineCacheMisses    *obs.Counter
	BaselineCacheEvictions *obs.Counter

	// RolloutPhaseSeconds and UpdatePhaseSeconds observe the two phases of
	// every training epoch a Trainer runs: RolloutShard (baselines and
	// inspected episodes) and ApplyDeltas (the PPO update) — the
	// schedinspector_train_phase_seconds{phase} series.
	RolloutPhaseSeconds *obs.Histogram
	UpdatePhaseSeconds  *obs.Histogram
}

// NewRolloutMetrics registers the rollout metric family on r.
func NewRolloutMetrics(r *obs.Registry) *RolloutMetrics {
	return &RolloutMetrics{
		Workers: r.Gauge("schedinspector_rollout_workers",
			"Effective worker count of the most recent rollout fan-out.", nil),
		WorkerUtilization: r.Gauge("schedinspector_rollout_worker_utilization",
			"Busy-time share of the worker pool during the most recent rollout (0-1).", nil),
		TrajectorySeconds: r.Histogram("schedinspector_rollout_trajectory_seconds",
			"Latency of one simulated trajectory (baseline + inspected run).", nil, nil),
		BaselineCacheSize: r.Gauge("schedinspector_baseline_cache_entries",
			"Entries currently held by the bounded baseline summary cache.", nil),
		BaselineCacheHits: r.Counter("schedinspector_baseline_cache_hits_total",
			"Baseline cache lookups served from memory.", nil),
		BaselineCacheMisses: r.Counter("schedinspector_baseline_cache_misses_total",
			"Baseline cache lookups that computed a fresh summary.", nil),
		BaselineCacheEvictions: r.Counter("schedinspector_baseline_cache_evictions_total",
			"Baseline cache entries evicted by the LRU bound.", nil),
		RolloutPhaseSeconds: r.Histogram(phaseMetric, phaseHelp, nil, obs.Labels{"phase": "rollout"}),
		UpdatePhaseSeconds:  r.Histogram(phaseMetric, phaseHelp, nil, obs.Labels{"phase": "update"}),
	}
}

const (
	phaseMetric = "schedinspector_train_phase_seconds"
	phaseHelp   = "Wall time of one training-epoch phase: rollout (RolloutShard) or update (ApplyDeltas)."
)

// observeRollout publishes one rollout's pool statistics. Nil receivers are
// a no-op so the un-instrumented path costs a single branch.
func (m *RolloutMetrics) observeRollout(workers int, busySec, wallSec float64) {
	if m == nil {
		return
	}
	m.Workers.Set(float64(workers))
	if wallSec > 0 && workers > 0 {
		m.WorkerUtilization.Set(busySec / (float64(workers) * wallSec))
	}
}

// observeCache publishes the baseline cache's size and the counter deltas
// since the previous call (prev is updated in place).
func (m *RolloutMetrics) observeCache(c *baselineCache, prev *[3]uint64) {
	if m == nil || c == nil {
		return
	}
	hits, misses, evictions := c.Stats()
	m.BaselineCacheSize.Set(float64(c.Len()))
	m.BaselineCacheHits.Add(float64(hits - prev[0]))
	m.BaselineCacheMisses.Add(float64(misses - prev[1]))
	m.BaselineCacheEvictions.Add(float64(evictions - prev[2]))
	prev[0], prev[1], prev[2] = hits, misses, evictions
}
