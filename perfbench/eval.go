package main

import (
	"math/rand"
	"reflect"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// The eval workload: core.Evaluate of the fixture at paper §4.4 scale — 50
// sequences of 256 jobs from the test region, both arms, stochastic
// inspector, one rollout worker per CPU. Each call samples its sequences
// from a different seed, so a run's median covers many windows.

const (
	evalSubset   = 5  // sequences in the worker-count equivalence check
	replayWindow = 10 // eval windows replayed through sim.Env
)

func runEval(o options, r *report) error {
	type evalSetup struct {
		tr  *workload.Trace
		fix *core.Inspector
	}
	e, setupS, err := setupMedian(o.meter, func() (*evalSetup, error) {
		tr := makeTrace(o.seed)
		fix, err := loadFixture(rand.New(rand.NewSource(o.seed)))
		if err != nil {
			return nil, err
		}
		return &evalSetup{tr: tr, fix: fix}, nil
	}, func(*evalSetup) {})
	if err != nil {
		return err
	}
	r.set("setup_s", setupS, "s")
	var rm *core.RolloutMetrics
	if o.traced {
		rm = core.NewRolloutMetrics(obs.NewRegistry())
	}
	cfg := func(seed int64) core.EvalConfig {
		return core.EvalConfig{
			Trace: e.tr, Policy: sjf(), Metric: e.fix.Norm.Metric, Seed: seed,
			MaxInterval: e.fix.Norm.MaxInterval, MaxRejections: e.fix.Norm.MaxRejections,
			Metrics: rm,
		}
	}
	checkWorkerEquivalence(r, e.fix, cfg(o.seed))

	if !o.traced {
		ev := runEvals(r, e.fix, cfg, o.meter, nil, o.seed, o.seconds)
		r.note("%d Evaluate calls, %d decisions", len(ev.u.lat), ev.decisions)
		r.set("eval_s", median(ev.u.lat), "s")
		r.set("eval_decisions_per_s", median(ev.u.rates), "1/s")
		ev.u.report(r)
		return nil
	}

	plain := runEvals(r, e.fix, cfg, o.meter, nil, o.seed, o.seconds/2)
	t := newTracer()
	t0 := time.Now()
	traced := runEvals(r, e.fix, cfg, o.meter, t, o.seed+1<<32, o.seconds/2)
	wall := time.Since(t0)
	r.set("trace.overhead_pct", overheadPct(plain.u, traced.u), "%")
	r.set("trace.coverage_pct", 100*float64(t.selfTimes()["core.evaluate"].dur)/float64(wall), "%")
	r.set("rollout.worker_util", mean(append(plain.util, traced.util...)), "ratio")
	r.set("sim.decisions", float64(plain.first.Inspections), "count")
	r.set("sim.rejections", float64(plain.first.Rejections), "count")
	feats := replaySim(r, t, e.tr, e.fix, o.seed)
	measureNN(r, t, e.fix, feats, 0)
	return finishTrace(o, r, t)
}

// evalRun is what one timed stretch of Evaluate calls produced.
type evalRun struct {
	u         units // one unit per call
	decisions int
	first     core.EvalResult
	util      []float64 // rollout worker utilization after each call (traced)
}

// runEvals calls Evaluate with successive seeds until seconds have passed,
// checking every result.
func runEvals(r *report, fix *core.Inspector, cfg func(int64) core.EvalConfig, m *speedMeter, t *tracer, seed int64, seconds float64) evalRun {
	var out evalRun
	t0 := time.Now()
	for i := int64(0); len(out.u.lat) < minEpochs || since(t0) < seconds; i++ {
		c := cfg(seed*1_000_003 + i)
		sp := t.root("core.evaluate")
		start := m.now()
		res, err := core.Evaluate(fix, c)
		end := m.now()
		t.end(sp)
		if err != nil {
			r.fail("evaluate: %v", err)
			return out
		}
		r.check(res.Inspections > 0 && finiteSummaries(res), "evaluate seed %d: %d inspections, non-finite summaries", c.Seed, res.Inspections)
		if i == 0 {
			out.first = res
		}
		out.u.add(m, start, end, res.Inspections, end-start)
		out.decisions += res.Inspections
		if c.Metrics != nil {
			out.util = append(out.util, c.Metrics.WorkerUtilization.Value())
		}
	}
	return out
}

func finiteSummaries(res core.EvalResult) bool {
	for _, sums := range [][]metrics.Summary{res.Base, res.Insp} {
		for _, s := range sums {
			for _, m := range []metrics.Metric{metrics.BSLD, metrics.Wait, metrics.MBSLD, metrics.Util} {
				if !finite(s.Of(m)) {
					return false
				}
			}
		}
	}
	return true
}

// checkWorkerEquivalence checks that a small evaluation is identical at the
// default worker count and at one worker.
func checkWorkerEquivalence(r *report, fix *core.Inspector, c core.EvalConfig) {
	c.Sequences, c.Metrics = evalSubset, nil
	par, err1 := core.Evaluate(fix, c)
	c.Workers = 1
	seq, err2 := core.Evaluate(fix, c)
	r.check(err1 == nil && err2 == nil && reflect.DeepEqual(par, seq),
		"evaluate of %d sequences differs between default workers and Workers=1 (errors %v, %v)", evalSubset, err1, err2)
}

// replaySim replays eval windows through sim.Run (the uninspected arm) and
// through sim.Env stepped by the fixture (the inspected arm), timing the
// simulator apart from the decisions. It returns the observed features.
func replaySim(r *report, t *tracer, tr *workload.Trace, fix *core.Inspector, seed int64) [][]float64 {
	const seqLen = 256
	rng := rand.New(rand.NewSource(seed))
	lo, hi := tr.Split(0.2), tr.Len()-seqLen+1
	clone := fix.Clone(rand.New(rand.NewSource(seed)))
	decide := clone.Stochastic()
	env := sim.NewEnv()
	var feats [][]float64
	for w := 0; w < replayWindow; w++ {
		jobs := tr.RandomWindow(rng, seqLen, lo, hi)
		cfg := sim.Config{
			MaxProcs: tr.MaxProcs, Policy: sjf(), NoValidate: true,
			MaxInterval: fix.Norm.MaxInterval, MaxRejections: fix.Norm.MaxRejections,
		}
		root := t.root("sim.replay")
		var err error
		t.timed("sim.base_episode", root, func() { _, err = sim.Run(jobs, cfg) })
		if err != nil {
			r.fail("replay base episode: %v", err)
			t.end(root)
			continue
		}
		st, done, err := env.Reset(jobs, cfg)
		if err != nil {
			r.fail("replay reset: %v", err)
			t.end(root)
			continue
		}
		for !done {
			if len(feats) < obsSample {
				feats = append(feats, fix.Norm.Features(nil, fix.Mode, st))
			}
			var reject bool
			t.timed("core.decide", root, func() { reject = decide(st) })
			t.timed("sim.step", root, func() { st, done = env.Step(reject) })
		}
		t.end(root)
		r.ok()
	}
	sts := t.selfTimes()
	r.set("sim.step_ns", sts["sim.step"].meanDur(), "ns")
	r.set("sim.base_episode_ms", sts["sim.base_episode"].meanDur()/1e6, "ms")
	return feats
}
