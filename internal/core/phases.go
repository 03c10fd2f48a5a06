package core

import (
	"fmt"
	"math/rand"
	"time"

	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/rl"
	"schedinspector/internal/rollout"
)

// The trainer's epoch is split into explicit, separately-invokable phases so
// a shard of trajectory indices can be computed in any process and merged in
// index order (the DD-PPO-style multi-process engine in internal/dist):
//
//	BeginEpoch    — advance the epoch counter; pure bookkeeping.
//	RolloutShard  — simulate trajectory indices [lo, hi) and return one
//	                TrajDelta per index. Every per-index quantity (RNG
//	                stream, window start, sampled actions, reward) is a pure
//	                function of (Seed, epoch, index), so shards computed in
//	                different processes are bit-identical to the same
//	                indices of a single-process epoch.
//	ApplyDeltas   — fold the complete, index-ordered delta set into the PPO
//	                update (the Adam step) and produce the epoch statistics.
//	                The fold visits deltas strictly in index order, so the
//	                statistics, the PPO batch and the updated weights never
//	                depend on which process produced which shard.
//
// RunEpoch is exactly BeginEpoch + RolloutShard(0, Batch) + ApplyDeltas, so
// the single-process trainer and an N-worker distributed run execute the
// same code over the same per-index streams — which is what pins them
// bit-identical (see internal/dist's equivalence suite).

// TrajDelta is the rollout-shard phase's contribution for one trajectory
// index: the PPO transitions plus the scalar statistics the epoch fold
// consumes. It is the unit of exchange between distributed workers —
// internal/dist serializes these through the canonical delta codec — and
// deliberately contains only data, no references into trainer state.
type TrajDelta struct {
	// Index is the trajectory's position in the epoch batch [0, Batch).
	Index int

	// Steps are the trajectory's RL transitions (observation, sampled
	// action, behavior log-probability).
	Steps []rl.Step

	// Reward is the clamped terminal reward of the trajectory.
	Reward float64

	// Improvement is the raw metric difference m_orig - m_insp
	// (sign-flipped for maximized metrics); PctImprovement the relative
	// form. Both are summed, in index order, into the epoch means.
	Improvement    float64
	PctImprovement float64

	// Inspections and Rejections count the inspector's decisions in this
	// trajectory, the inputs of the epoch rejection ratio.
	Inspections int
	Rejections  int
}

// ShardRange returns the contiguous trajectory-index range [lo, hi) that
// rank owns out of batch indices split across world workers. Remainder
// indices go to the lowest ranks, so shard sizes differ by at most one and
// every index is owned by exactly one rank.
func ShardRange(batch, world, rank int) (lo, hi int) {
	if world < 1 || rank < 0 || rank >= world {
		panic(fmt.Sprintf("core: ShardRange(batch=%d, world=%d, rank=%d) out of range", batch, world, rank))
	}
	size, rem := batch/world, batch%world
	lo = rank*size + min(rank, rem)
	hi = lo + size
	if rank < rem {
		hi++
	}
	return lo, hi
}

// BeginEpoch advances the trainer into its next epoch and returns the epoch
// number. It starts the epoch's wall clock (EpochStats.Seconds spans
// BeginEpoch to ApplyDeltas) but performs no simulation: distributed
// workers call it in lockstep so every process derives the same
// (Seed, epoch, index) RNG streams before rolling out its own shard.
func (t *Trainer) BeginEpoch() int {
	t.epoch++
	t.epochT0 = time.Now()
	return t.epoch
}

// RolloutShard simulates trajectory indices [lo, hi) of the current epoch —
// baseline summaries fanned over cfg.Workers goroutines and deduplicated
// through the cache, then the inspected episodes through the decision-wave
// driver — and returns one TrajDelta per index, in index order.
//
// Each index b draws its window start and every action from the private
// stream derived from (Seed, epoch, b), and the wave driver reports slots
// under their global index (rollout.Config.SlotBase), so the deltas for
// [lo, hi) are bit-identical whether the shard is computed alone in a
// worker process or as part of a full single-process epoch.
func (t *Trainer) RolloutShard(lo, hi int) ([]TrajDelta, error) {
	B := t.cfg.Batch
	if lo < 0 || hi > B || lo >= hi {
		return nil, fmt.Errorf("core: RolloutShard [%d, %d) out of range for batch %d", lo, hi, B)
	}
	if m := t.cfg.Metrics; m != nil {
		defer func(start time.Time) { m.RolloutPhaseSeconds.Observe(time.Since(start).Seconds()) }(time.Now())
	}
	n := hi - lo

	// Per-index streams, global-indexed: entry b exists for b in [lo, hi).
	rngs := make([]*rand.Rand, hi)
	starts := make([]int, hi)
	for b := lo; b < hi; b++ {
		rngs[b] = streamRNG(t.cfg.Seed, streamTrain, uint64(t.epoch), uint64(b))
		starts[b] = t.trainLo + rngs[b].Intn(t.trainHi-t.trainLo)
	}

	workers := t.cfg.Workers
	if workers > n {
		workers = n
	}
	basePols, ok := rollout.PolicyClones(t.cfg.Policy, workers)
	if !ok {
		workers = 1 // stateful, uncloneable policy: stay sequential
	}

	// Phase 1: baseline summaries of every drawn window, deduped and
	// memoized by the cache.
	baseSums := make([]metrics.Summary, n)
	baseErrs := make([]error, n)
	busy, wall := rollout.RunIndexed(workers, n, func(w, k int) {
		baseSums[k], baseErrs[k] = t.baseline(starts[lo+k], basePols[w])
	})

	// Phase 2: inspected episodes through the wave driver. Concurrent
	// episodes each need their own stateful-policy instance; the inspector
	// itself needs only one read-only snapshot, since decision waves are
	// evaluated on the coordinating goroutine.
	epPols, ok := rollout.PolicyClones(t.cfg.Policy, n)
	epWorkers := workers
	if !ok {
		epWorkers = 1
	}
	eps := make([]rollout.Episode, n)
	for k := range eps {
		pol := epPols[0]
		if len(epPols) > 1 {
			pol = epPols[k]
		}
		eps[k] = rollout.Episode{
			Jobs:        t.cfg.Trace.Window(starts[lo+k], t.cfg.SeqLen),
			Cfg:         t.simConfig(pol),
			Interactive: true,
		}
	}
	sampler := newWaveSampler(t.insp.Clone(nil), rngs, hi, true)
	rollCfg := rollout.Config{Workers: epWorkers, Decide: sampler.decide, SlotBase: lo}
	if t.cfg.Flight != nil {
		// The epoch span roots this epoch's episode and decision spans; its
		// ID is a pure function of (seed, epoch), never of scheduling, so
		// every worker's shard records under the same root.
		epochID := obs.DeriveSpanID(uint64(t.cfg.Seed), streamTrain, uint64(t.epoch))
		if !t.epochSpanOpen {
			t.epochSpan = obs.StartSpan("epoch", epochID, 0, 0)
			t.epochSpanOpen = true
		}
		rollCfg.Spans = t.cfg.Flight.SpanTracer()
		rollCfg.Ring = t.cfg.Flight.TraceRing()
		rollCfg.SpanRoot = epochID
		sampler.explainTo(t.cfg.Flight, t.epoch, t.cfg.MaxRejections)
	}
	results, rep, runErr := rollout.Run(eps, rollCfg)
	busy += rep.Busy
	wall += rep.Wall
	t.cfg.Metrics.observeRollout(workers, busy.Seconds(), wall.Seconds())
	t.cfg.Metrics.observeCache(t.baseCache, &t.cacheSeen)
	if t.cfg.Metrics != nil {
		for _, s := range rep.EpisodeSeconds {
			t.cfg.Metrics.TrajectorySeconds.Observe(s)
		}
	}
	for k := range baseErrs {
		if baseErrs[k] != nil {
			return nil, baseErrs[k]
		}
	}
	if runErr != nil {
		return nil, runErr
	}

	deltas := make([]TrajDelta, n)
	for k := range results {
		b := lo + k
		orig, insp := baseSums[k], results[k].Summary(t.cfg.Trace.MaxProcs)
		diff := orig.Of(t.cfg.Metric) - insp.Of(t.cfg.Metric)
		if !t.cfg.Metric.Minimize() {
			diff = -diff
		}
		deltas[k] = TrajDelta{
			Index:          b,
			Steps:          sampler.steps[b],
			Reward:         clampReward(Reward(t.cfg.RewardKind, t.cfg.Metric, orig, insp)),
			Improvement:    diff,
			PctImprovement: metrics.Improvement(t.cfg.Metric, orig, insp),
			Inspections:    results[k].Inspections,
			Rejections:     results[k].Rejections,
		}
	}
	return deltas, nil
}

// ApplyDeltas folds a complete epoch's deltas — all Batch trajectory
// indices, in index order — into one PPO update and returns the epoch
// statistics. The fold order is part of the contract: statistics accumulate
// and trajectories enter the PPO batch strictly by ascending index, so the
// update is bit-identical however the deltas were produced (one process or
// many). An incomplete, duplicated or out-of-order delta set is rejected
// before any state changes.
func (t *Trainer) ApplyDeltas(deltas []TrajDelta) (EpochStats, error) {
	if m := t.cfg.Metrics; m != nil {
		defer func(start time.Time) { m.UpdatePhaseSeconds.Observe(time.Since(start).Seconds()) }(time.Now())
	}
	stats := EpochStats{Epoch: t.epoch}
	B := t.cfg.Batch
	if len(deltas) != B {
		return stats, fmt.Errorf("core: ApplyDeltas got %d deltas, epoch batch is %d", len(deltas), B)
	}
	for i := range deltas {
		if deltas[i].Index != i {
			return stats, fmt.Errorf("core: ApplyDeltas delta %d carries index %d; deltas must cover 0..%d in order",
				i, deltas[i].Index, B-1)
		}
	}

	batch := make([]rl.Trajectory, 0, B)
	var inspections, rejections int
	for i := range deltas {
		d := &deltas[i]
		batch = append(batch, rl.Trajectory{Steps: d.Steps, Reward: d.Reward})
		stats.MeanImprovement += d.Improvement
		stats.MeanPctImprovement += d.PctImprovement
		inspections += d.Inspections
		rejections += d.Rejections
	}
	n := float64(B)
	stats.MeanImprovement /= n
	stats.MeanPctImprovement /= n
	if inspections > 0 {
		stats.RejectionRatio = float64(rejections) / float64(inspections)
	}
	up, err := t.ppo.Update(batch)
	if err != nil {
		return stats, err
	}
	stats.MeanReward = up.MeanReward
	stats.RewardStd = up.RewardStd
	stats.ApproxKL = up.ApproxKL
	stats.PolicyLoss = up.PolicyLoss
	stats.ValueLoss = up.ValueLoss
	stats.Entropy = up.Entropy
	stats.PolicyIters = up.PolicyIters
	stats.Steps = up.Steps
	stats.Seconds = time.Since(t.epochT0).Seconds()
	if t.cfg.Flight != nil && t.epochSpanOpen {
		t.epochSpan.Attrs = append(t.epochSpan.Attrs,
			obs.Attr{Key: "epoch", Num: float64(t.epoch)},
			obs.Attr{Key: "steps", Num: float64(stats.Steps)},
			obs.Attr{Key: "reject_ratio", Num: stats.RejectionRatio},
			obs.Attr{Key: "mean_reward", Num: stats.MeanReward},
		)
		t.epochSpan.End(0)
		t.cfg.Flight.EmitSpan(t.epochSpan)
		t.epochSpan = obs.Span{}
		t.epochSpanOpen = false
	}
	if t.cfg.Logger != nil {
		t.cfg.Logger.LogEpoch(stats)
	}
	return stats, nil
}
