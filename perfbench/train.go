package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/obs"
)

// The train workload: paper §4.1 epochs (SJF, bsld, Batch 100, SeqLen 128,
// one rollout worker per CPU) through Trainer.BeginEpoch →
// RolloutShard(0, Batch) → ApplyDeltas. Every epoch runs on a fresh trainer
// warm-started from the fixture with its own seed, so every epoch trains a
// model that behaves like a deployed one. Continuing one trainer instead
// let the policy drift within a run: on one seed it went from 18k to 28k
// PPO samples per epoch, and epoch time with it.

// minEpochs is the fewest epochs a run measures, however short --seconds.
const minEpochs = 3

// obsSample bounds the observations kept for the standalone nn timings.
const obsSample = 4096

type trainSetup struct {
	cfg core.TrainConfig
	fix *core.Inspector
	tn  *core.Trainer        // the latest epoch's trainer
	rm  *core.RolloutMetrics // traced runs only
}

// trainer builds the trainer for one epoch, warm-started from the fixture.
func (e *trainSetup) trainer(seed int64) (*core.Trainer, error) {
	cfg := e.cfg
	cfg.Seed = seed
	return core.NewTrainerFrom(cfg, e.fix)
}

func runTrain(o options, r *report) error {
	e, setupS, err := setupMedian(o.meter, func() (*trainSetup, error) {
		tr := makeTrace(o.seed)
		fix, err := loadFixture(rand.New(rand.NewSource(o.seed)))
		if err != nil {
			return nil, err
		}
		var rm *core.RolloutMetrics
		if o.traced {
			rm = core.NewRolloutMetrics(obs.NewRegistry())
		}
		e := &trainSetup{fix: fix, rm: rm, cfg: core.TrainConfig{
			Trace: tr, Policy: sjf(), Metric: fix.Norm.Metric, FeatureMode: fix.Mode,
			MaxInterval: fix.Norm.MaxInterval, MaxRejections: fix.Norm.MaxRejections,
			Metrics: rm,
		}}
		e.tn, err = e.trainer(o.seed)
		if err != nil {
			return nil, err
		}
		return e, nil
	}, func(*trainSetup) {})
	if err != nil {
		return err
	}
	r.set("setup_s", setupS, "s")
	cfg := e.tn.Config()
	r.note("train: Batch %d, SeqLen %d, %d rollout workers, %d-job trace", cfg.Batch, cfg.SeqLen, cfg.Workers, cfg.Trace.Len())

	if !o.traced {
		ep := runEpochs(r, e, o.meter, nil, o.seed, o.seconds)
		r.note("%d epochs, %d PPO samples", len(ep.u.lat), ep.steps)
		r.set("epoch_s", median(ep.u.lat), "s")
		r.set("train_samples_per_s", median(ep.u.rates), "1/s")
		ep.u.report(r)
		printModelDigest(r, e.tn)
		return nil
	}

	plain := runEpochs(r, e, o.meter, nil, o.seed, o.seconds/2)
	t := newTracer()
	t0 := time.Now()
	traced := runEpochs(r, e, o.meter, t, o.seed+1<<32, o.seconds/2)
	if len(plain.stats) == 0 || len(traced.stats) == 0 {
		return fmt.Errorf("train: an epoch failed")
	}
	wall := time.Since(t0)
	r.set("trace.overhead_pct", overheadPct(plain.u, traced.u), "%")
	st := t.selfTimes()
	r.set("trace.coverage_pct", 100*float64(st["core.epoch"].dur)/float64(wall), "%")
	r.set("core.rollout_s", st["core.rollout"].meanDur()/1e9, "s")
	r.set("core.update_s", st["core.update"].meanDur()/1e9, "s")
	r.set("rl.update_us_per_sample", float64(st["core.update"].dur)/1e3/float64(traced.steps), "us")
	first := plain.stats[0]
	r.set("rl.steps", float64(first.Steps), "count")
	r.set("rl.policy_iters", float64(first.PolicyIters), "count")
	hits, misses := e.rm.BaselineCacheHits.Value(), e.rm.BaselineCacheMisses.Value()
	r.set("core.basecache_hit_ratio", hits/max(hits+misses, 1), "ratio")
	r.set("rollout.worker_util", mean(append(plain.util, traced.util...)), "ratio")
	iters := 0.0
	for _, s := range append(plain.stats, traced.stats...) {
		iters += float64(s.PolicyIters)
	}
	iters /= float64(len(plain.stats) + len(traced.stats))
	measureNN(r, t, e.fix, append(plain.obs, traced.obs...), iters)
	printModelDigest(r, e.tn)
	return finishTrace(o, r, t)
}

// epochRun is what one timed stretch of epochs produced.
type epochRun struct {
	u     units // one unit per epoch
	steps int
	stats []core.EpochStats
	util  []float64   // rollout worker utilization after each epoch (traced)
	obs   [][]float64 // observations for the nn timings (traced)
}

// runEpochs runs epochs until seconds have passed (and at least minEpochs),
// each on a fresh trainer seeded from seed and the epoch's index, and
// checks every epoch's statistics. It stops at the first error.
func runEpochs(r *report, e *trainSetup, m *speedMeter, t *tracer, seed int64, seconds float64) epochRun {
	var out epochRun
	batch := e.tn.Config().Batch
	t0 := time.Now()
	for i := int64(0); len(out.u.lat) < minEpochs || since(t0) < seconds; i++ {
		var err error
		if e.tn, err = e.trainer(seed*1_000_003 + i); err != nil {
			r.fail("trainer: %v", err)
			return out
		}
		root := t.root("core.epoch")
		start := m.now()
		e.tn.BeginEpoch()
		var (
			deltas []core.TrajDelta
			st     core.EpochStats
		)
		t.timed("core.rollout", root, func() { deltas, err = e.tn.RolloutShard(0, batch) })
		if err == nil {
			t.timed("core.update", root, func() { st, err = e.tn.ApplyDeltas(deltas) })
		}
		end := m.now()
		t.end(root)
		if err != nil {
			r.fail("epoch: %v", err)
			return out
		}
		ok := st.Steps > 0 && finite(st.MeanReward, st.MeanImprovement, st.MeanPctImprovement,
			st.RejectionRatio, st.RewardStd, st.ApproxKL, st.PolicyLoss, st.ValueLoss, st.Entropy)
		r.check(ok, "epoch %d statistics not finite or no steps: %+v", st.Epoch, st)
		out.u.add(m, start, end, st.Steps, end-start)
		r.note("epoch %d: %.3f s, %d samples, %d policy passes, reject ratio %.3f, host slowdown %.3f",
			st.Epoch, end-start, st.Steps, st.PolicyIters, st.RejectionRatio, out.u.slow[len(out.u.slow)-1])
		out.steps += st.Steps
		out.stats = append(out.stats, st)
		if e.rm != nil {
			out.util = append(out.util, e.rm.WorkerUtilization.Value())
			for _, dl := range deltas {
				for _, s := range dl.Steps {
					if len(out.obs) < obsSample {
						out.obs = append(out.obs, s.Obs)
					}
				}
			}
		}
	}
	return out
}

// printModelDigest prints the SHA-256 of the trained model.
func printModelDigest(r *report, tn *core.Trainer) {
	var buf bytes.Buffer
	if err := tn.Inspector().Save(&buf); err != nil {
		r.fail("save trained model: %v", err)
		return
	}
	d := sha256.Sum256(buf.Bytes())
	r.note("final model sha256 %s", hex.EncodeToString(d[:]))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
