// Package online closes the continual-learning loop inside inspectord:
// record → retrain → shadow-evaluate → promote.
//
// The daemon already records every served decision (features, logits,
// action, cluster context) into the flight-recorder ring, and already
// hot-swaps generations atomically under the serve decision lock. This
// package wires those pieces into a background retrainer:
//
//  1. Tail the live decision stream (obs.TraceRing.Snapshot images,
//     deduplicated by the serving path's lifetime Seq counter) into a
//     bounded sliding replay window.
//  2. Once the window is full enough, reconstruct a synthetic training
//     trace from the older portion of the window and fine-tune a
//     candidate off the serving path: a warm-started trainer
//     (core.NewTrainerFrom — same weights, feature mode, and normalizer
//     as the serving model) runs a few epochs through the exact
//     BeginEpoch/RolloutShard/ApplyDeltas phases offline training uses.
//  3. Shadow-evaluate: score the candidate AND the serving model with
//     core.Evaluate on a held-out trace reconstructed from the newest
//     portion of the window — same sequences, same seeds, the paper's
//     reward metric — and promote only if the candidate clears a
//     configurable margin.
//  4. Promote through the existing swap path (generation-tracked, never
//     tears against an in-flight decision), then re-check on the next cycle's
//     fresh holdout and roll back if the promotion regressed.
//
// Every failure mode — corrupt window image, reconstruction that does not
// validate, diverging candidate, retrain crash or cancellation — degrades
// to "keep serving the current model": the loop only ever touches the
// served snapshot through one Swap call on a candidate that won its
// shadow evaluation.
package online

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/core"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// Snapshotter supplies self-contained .ftrace images of the live decision
// stream. *obs.TraceRing implements it; serve.Handler.TraceRing() is the
// production source.
type Snapshotter interface {
	Snapshot() []byte
}

// Server is the serving surface the loop reads candidates' competition
// from and promotes into. serve.Handler implements it.
type Server interface {
	// Current returns the inspector presently answering decisions and its
	// generation, as one consistent pair.
	Current() (*core.Inspector, int64)
	// Swap atomically replaces the served inspector (next generation).
	Swap(*core.Inspector)
}

// Config parameterizes the loop. Source and Serving are required;
// everything else has serving-friendly defaults.
type Config struct {
	Source  Snapshotter
	Serving Server

	// Registry, when non-nil, receives the schedinspector_online_* metric
	// family (pass the serve handler's registry so the state machine shows
	// up on the daemon's /metrics).
	Registry *obs.Registry

	Policy   sched.Policy  // base scheduler for replay/eval (default SJF)
	Interval time.Duration // cycle period (default 30s)

	// Margin is the shadow-evaluation improvement a candidate must clear
	// over the serving model to be promoted, in absolute units of
	// EvalResult.MeanImprovement (0 = any non-regression promotes).
	Margin float64

	MinWindow   int     // decisions required before retraining (default 512)
	MaxWindow   int     // sliding-window bound (default 8192)
	HoldoutFrac float64 // newest fraction of the window held out for shadow eval (default 0.2)

	// Fine-tuning shape. Deliberately small: the loop runs on the serving
	// box and must stay off the hot path's CPU budget.
	Epochs int     // retrain epochs per cycle (default 2)
	Batch  int     // trajectories per epoch (default 8)
	SeqLen int     // jobs per trajectory, clamped to the window (default 64)
	LR     float64 // fine-tune learning rate (default 1e-4)

	ShadowSequences int // eval sequences per shadow arm (default 8)
	ShadowSeqLen    int // jobs per eval sequence, clamped (default 64)

	// Workers is the retrain and shadow-eval fan-out (default 1). The loop
	// shares its process with /v1/inspect, so by default it keeps to one
	// core and leaves the rest to serving; rollouts and evaluation are
	// bit-identical at any count, so this changes no candidate model.
	Workers int
	Seed    int64 // base seed; each cycle derives its own streams

	// PromotedDir, when set, persists every promoted candidate as a full
	// trainer checkpoint (ckpt container, CRC-verified) named by serving
	// generation, so a restarted daemon can -model the newest survivor.
	PromotedDir  string
	PromotedKeep int // checkpoints retained in PromotedDir (default 4)

	// HistoryCap bounds the candidate-verdict audit ring served at
	// /v1/online/history (default DefaultHistoryCap).
	HistoryCap int

	Logf func(string, ...any) // optional progress log
}

func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy, _ = sched.ByName("SJF")
	}
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 512
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 8192
	}
	if c.MaxWindow < c.MinWindow {
		c.MaxWindow = c.MinWindow
	}
	if c.HoldoutFrac <= 0 || c.HoldoutFrac >= 1 {
		c.HoldoutFrac = 0.2
	}
	if c.Epochs <= 0 {
		c.Epochs = 2
	}
	if c.Batch <= 0 {
		c.Batch = 8
	}
	if c.SeqLen <= 0 {
		c.SeqLen = 64
	}
	if c.LR <= 0 {
		c.LR = 1e-4
	}
	if c.ShadowSequences <= 0 {
		c.ShadowSequences = 8
	}
	if c.ShadowSeqLen <= 0 {
		c.ShadowSeqLen = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.PromotedKeep <= 0 {
		c.PromotedKeep = 4
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Loop is the continual-learning state machine. Construct with New, drive
// with Start (or RunCycle directly in tests), observe via Status and the
// registered metrics.
type Loop struct {
	cfg Config
	m   *metricsSet

	// runMu serializes cycles: the ticker goroutine and any direct
	// RunCycle callers (tests) never overlap.
	runMu sync.Mutex

	// Window state, touched only while runMu is held.
	window  []obs.ExplainRecord
	lastSeq int
	prev    *core.Inspector // pre-promotion model awaiting confirmation
	prevGen int64           // generation the promotion produced

	// mu guards the externally visible status mirror.
	mu sync.Mutex
	st Status

	// hist is the bounded candidate-verdict audit ring (own lock).
	hist *candHistory

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}

	// Test seams. Production uses the defaults installed by New.
	candidateFn func(ctx context.Context, serving *core.Inspector, tr *workload.Trace, seed int64) (*core.Inspector, *core.TrainerCheckpoint, error)
	scoreFn     func(insp *core.Inspector, tr *workload.Trace, seed int64) (float64, error)
	epochHook   func(epoch int) // called after each completed retrain epoch
}

// New validates the configuration and builds a loop. The loop is inert
// until Start (or RunCycle) is called.
func New(cfg Config) (*Loop, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("online: Config.Source is required")
	}
	if cfg.Serving == nil {
		return nil, fmt.Errorf("online: Config.Serving is required")
	}
	cfg = cfg.withDefaults()
	if cfg.Policy == nil {
		return nil, fmt.Errorf("online: Config.Policy is required (default SJF unavailable)")
	}
	l := &Loop{
		cfg:     cfg,
		m:       newMetricsSet(cfg.Registry),
		hist:    newCandHistory(cfg.HistoryCap),
		lastSeq: -1,
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	l.candidateFn = l.retrainCandidate
	l.scoreFn = l.shadowScore
	l.st.Enabled = true
	l.st.State = stateIdle.String()
	l.st.Margin = cfg.Margin
	l.st.MinWindow = cfg.MinWindow
	l.st.WindowCapacity = cfg.MaxWindow
	_, l.st.ServingGeneration = cfg.Serving.Current()
	return l, nil
}

// Start launches the background cycle ticker and returns a stop function.
// Stop is idempotent; it cancels any in-flight retrain (which discards the
// candidate and keeps serving) and waits for the cycle goroutine to exit.
// Call stop before tearing down the serving handler.
func (l *Loop) Start(ctx context.Context) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	go func() {
		defer close(l.doneCh)
		tick := time.NewTicker(l.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-l.stopCh:
				return
			case <-tick.C:
				l.RunCycle(ctx)
			}
		}
	}()
	return func() {
		l.stopOnce.Do(func() { close(l.stopCh) })
		cancel()
		<-l.doneCh
	}
}

// cycleSeed derives the per-cycle seed stream with a SplitMix64 step so
// consecutive cycles are decorrelated even with Seed = 0.
func cycleSeed(base int64, cycle uint64) int64 {
	z := uint64(base) + (cycle+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// RunCycle executes one pass of the state machine: tail, then — if the
// window is ready — either the post-promotion confirmation check or a
// retrain + shadow evaluation. It never blocks the serving path; every
// error path keeps the current model serving. Safe for concurrent use
// (cycles serialize).
func (l *Loop) RunCycle(ctx context.Context) {
	l.runMu.Lock()
	defer l.runMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			l.fail(fmt.Errorf("cycle panic: %v", r))
		}
		// Rest at "collecting" while the window is still filling — that is
		// the loop's actual situation between cycles — and "idle" otherwise.
		l.mu.Lock()
		resting := l.st.State == stateCollecting.String()
		l.mu.Unlock()
		if !resting {
			l.setState(stateIdle)
		}
		l.mirror(func(st *Status) {
			st.LastCycleUnix = time.Now().Unix()
			_, st.ServingGeneration = l.cfg.Serving.Current()
		})
	}()
	l.m.cycles.Inc()
	var cycle uint64
	l.mirror(func(st *Status) { st.Cycles++; cycle = st.Cycles })
	seed := cycleSeed(l.cfg.Seed, cycle)

	l.setState(stateTailing)
	l.tail()

	if len(l.window) < l.cfg.MinWindow {
		l.setState(stateCollecting)
		return
	}

	trainTrace, holdTrace, err := l.reconstruct()
	if err != nil {
		l.m.corruptWindows.Inc()
		l.fail(fmt.Errorf("window reconstruction: %w", err))
		return
	}

	if l.prev != nil {
		// A promotion from the last cycle is on probation: judge it on
		// this cycle's fresh holdout before training anything new.
		l.confirmOrRollback(holdTrace, seed, cycle)
		return
	}

	serving, gen := l.cfg.Serving.Current()

	l.setState(stateRetraining)
	l.m.retrains.Inc()
	l.mirror(func(st *Status) { st.Retrains++ })
	cand, candCk, err := l.candidateFn(ctx, serving, trainTrace, seed)
	if err != nil {
		l.m.retrainFailures.Inc()
		l.mirror(func(st *Status) { st.RetrainFailures++ })
		l.fail(fmt.Errorf("retrain: %w", err))
		return
	}
	if !finiteInspector(cand) {
		// Divergence is a rejection, not an error: the loop is healthy,
		// the candidate is not.
		l.m.rejections.Inc()
		l.mirror(func(st *Status) { st.Rejections++ })
		l.record(CandidateRecord{Cycle: cycle, Generation: gen, Verdict: "diverged",
			WindowSize: len(l.window), Detail: "non-finite weights after retrain"})
		l.fail(fmt.Errorf("candidate diverged (non-finite weights)"))
		return
	}

	l.setState(stateShadowEval)
	candScore, errC := l.scoreFn(cand, holdTrace, seed)
	servScore, errS := l.scoreFn(serving, holdTrace, seed)
	l.m.shadowEvals.Inc()
	l.mirror(func(st *Status) { st.ShadowEvals++ })
	if errC != nil || errS != nil || math.IsNaN(candScore) || math.IsNaN(servScore) {
		l.m.rejections.Inc()
		l.mirror(func(st *Status) { st.Rejections++ })
		l.record(CandidateRecord{Cycle: cycle, Generation: gen, Verdict: "eval-failed",
			CandidateScore: candScore, ServingScore: servScore,
			WindowSize: len(l.window),
			Detail:     fmt.Sprintf("cand err=%v serving err=%v", errC, errS)})
		l.fail(fmt.Errorf("shadow eval: cand=(%v, %v) serving=(%v, %v)", candScore, errC, servScore, errS))
		return
	}
	l.m.candScore.Set(candScore)
	l.m.servScore.Set(servScore)
	l.mirror(func(st *Status) {
		st.LastCandidateScore = candScore
		st.LastServingScore = servScore
	})

	if candScore-servScore < l.cfg.Margin {
		l.m.rejections.Inc()
		l.mirror(func(st *Status) { st.Rejections++ })
		l.record(CandidateRecord{Cycle: cycle, Generation: gen, Verdict: "rejected",
			CandidateScore: candScore, ServingScore: servScore,
			Margin: candScore - servScore, WindowSize: len(l.window)})
		l.cfg.Logf("online: cycle %d rejected candidate (%.4f vs %.4f, margin %.4f)",
			cycle, candScore, servScore, l.cfg.Margin)
		return
	}

	l.setState(statePromoting)
	// The generation could have moved under us (operator reload) while we
	// were training; a promotion decided against a stale serving model is
	// void.
	if _, now := l.cfg.Serving.Current(); now != gen {
		l.m.rejections.Inc()
		l.mirror(func(st *Status) { st.Rejections++ })
		l.record(CandidateRecord{Cycle: cycle, Generation: now, Verdict: "stale-generation",
			CandidateScore: candScore, ServingScore: servScore,
			Margin:     candScore - servScore,
			WindowSize: len(l.window),
			Detail:     fmt.Sprintf("serving generation moved %d -> %d during retrain", gen, now)})
		l.fail(fmt.Errorf("serving generation moved %d -> %d during retrain; discarding candidate", gen, now))
		return
	}
	l.cfg.Serving.Swap(cand)
	_, newGen := l.cfg.Serving.Current()
	l.prev, l.prevGen = serving, newGen
	l.m.promotions.Inc()
	l.mirror(func(st *Status) {
		st.Promotions++
		st.ServingGeneration = newGen
	})
	l.record(CandidateRecord{Cycle: cycle, Generation: newGen, Verdict: "promoted",
		CandidateScore: candScore, ServingScore: servScore,
		Margin: candScore - servScore, WindowSize: len(l.window)})
	l.cfg.Logf("online: cycle %d promoted candidate at generation %d (%.4f vs %.4f)",
		cycle, newGen, candScore, servScore)
	l.persistPromoted(candCk, newGen)
}

// confirmOrRollback judges the previous cycle's promotion on a fresh
// holdout: if the pre-promotion model now outscores the serving model by
// more than the margin, the promotion regressed and is rolled back (a
// forward swap to the old weights — generations never rewind). Either way
// the probation ends.
func (l *Loop) confirmOrRollback(hold *workload.Trace, seed int64, cycle uint64) {
	prev := l.prev
	l.prev = nil
	if _, now := l.cfg.Serving.Current(); now != l.prevGen {
		// Someone else swapped since the promotion; the comparison is moot.
		return
	}
	serving, _ := l.cfg.Serving.Current()
	l.setState(stateShadowEval)
	servScore, errS := l.scoreFn(serving, hold, seed)
	prevScore, errP := l.scoreFn(prev, hold, seed)
	l.m.shadowEvals.Inc()
	l.mirror(func(st *Status) { st.ShadowEvals++ })
	if errS != nil || errP != nil || math.IsNaN(servScore) || math.IsNaN(prevScore) {
		// Can't judge: keep the promoted model serving, end probation.
		l.fail(fmt.Errorf("rollback check: serving=(%v, %v) prev=(%v, %v)", servScore, errS, prevScore, errP))
		return
	}
	if prevScore-servScore > math.Max(l.cfg.Margin, 0) {
		l.cfg.Serving.Swap(prev)
		_, gen := l.cfg.Serving.Current()
		l.m.rollbacks.Inc()
		l.mirror(func(st *Status) {
			st.Rollbacks++
			st.ServingGeneration = gen
		})
		l.record(CandidateRecord{Cycle: cycle, Generation: gen, Verdict: "rolled-back",
			CandidateScore: servScore, ServingScore: prevScore,
			Margin: servScore - prevScore, WindowSize: len(l.window),
			Detail: "promoted model regressed on the probation holdout"})
		l.cfg.Logf("online: rolled back promotion (%.4f vs %.4f) at generation %d",
			servScore, prevScore, gen)
		return
	}
	l.record(CandidateRecord{Cycle: cycle, Generation: l.prevGen, Verdict: "confirmed",
		CandidateScore: servScore, ServingScore: prevScore,
		Margin: servScore - prevScore, WindowSize: len(l.window)})
	l.cfg.Logf("online: promotion confirmed (%.4f vs %.4f)", servScore, prevScore)
}

// persistPromoted writes the promoted candidate's full trainer checkpoint
// into PromotedDir (CRC-verified ckpt container, pruned to PromotedKeep).
// Persistence failures never affect serving; they are logged and surfaced
// on status.
func (l *Loop) persistPromoted(ck *core.TrainerCheckpoint, gen int64) {
	if l.cfg.PromotedDir == "" || ck == nil {
		return
	}
	err := func() error {
		payload, err := ck.Encode()
		if err != nil {
			return err
		}
		if err := os.MkdirAll(l.cfg.PromotedDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(l.cfg.PromotedDir, ckpt.FileName(int(gen)))
		if err := ckpt.Write(path, core.TrainerCheckpointVersion, payload); err != nil {
			return err
		}
		return ckpt.Prune(l.cfg.PromotedDir, l.cfg.PromotedKeep)
	}()
	if err != nil {
		l.fail(fmt.Errorf("persist promoted generation %d: %w", gen, err))
	}
}

// fail records a degraded-but-serving outcome: the error is logged and
// mirrored to status, nothing else changes.
func (l *Loop) fail(err error) {
	l.cfg.Logf("online: %v", err)
	l.mirror(func(st *Status) { st.LastError = err.Error() })
}

func (l *Loop) mirror(fn func(*Status)) {
	l.mu.Lock()
	fn(&l.st)
	l.mu.Unlock()
}

// finiteInspector reports whether every policy/value weight is finite. A
// fine-tune on a weird window can diverge; non-finite weights must never
// reach the serving snapshot.
func finiteInspector(in *core.Inspector) bool {
	if in == nil || in.Agent == nil {
		return false
	}
	finite := func(rows [][]float64) bool {
		for _, row := range rows {
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	p, v := in.Agent.Policy, in.Agent.Value
	if p == nil || v == nil {
		return false
	}
	return finite(p.W) && finite(p.B) && finite(v.W) && finite(v.B)
}
