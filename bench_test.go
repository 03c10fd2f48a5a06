// Benchmarks mapping one-to-one onto the paper's tables and figures. Each
// BenchmarkTableN/BenchmarkFigN runs the corresponding experiment harness at
// a reduced scale per iteration — run `go test -bench=.` for the full sweep
// or `cmd/expreport` for the report-scale reproduction. The micro-benchmarks
// at the bottom cover §4.6 (inference and training cost) and the simulator
// substrate itself.
package schedinspector_test

import (
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	insp "schedinspector"
	"schedinspector/internal/core"
	"schedinspector/internal/expt"
	"schedinspector/internal/metrics"
	"schedinspector/internal/nn"
	"schedinspector/internal/obs"
	"schedinspector/internal/rl"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// benchExperiment runs one registry experiment per iteration at tiny scale.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	e, err := expt.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	o := expt.Tiny(io.Discard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.ResetMemo() // each iteration trains for real, no cache hits
		if err := e.Run(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Motivating(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2TraceStats(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkFig4Training(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5Features(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6Rewards(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7Policies(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig8TestEval(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkTable4CrossTrace(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkFig9Metrics(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10TradeOff(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11Backfill(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkTable5Utilization(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkFig12Slurm(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13WhatLearned(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkCostReport(b *testing.B)        { benchExperiment(b, "cost") }

// Extension experiments (ablations + RLScheduler integration).
func BenchmarkAblateInterval(b *testing.B) { benchExperiment(b, "ablate-interval") }
func BenchmarkAblateCap(b *testing.B)      { benchExperiment(b, "ablate-cap") }
func BenchmarkAblateCritic(b *testing.B)   { benchExperiment(b, "ablate-critic") }
func BenchmarkAblateBackfill(b *testing.B) { benchExperiment(b, "ablate-backfill") }
func BenchmarkRLSched(b *testing.B)        { benchExperiment(b, "rlsched") }

// BenchmarkInference measures the §4.6 per-decision inference cost: one
// greedy inspector decision, features included (the paper reports 0.7 ms on
// its Python stack).
func BenchmarkInference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := workload.SDSCSP2Like(2000, 1)
	model := core.NewInspector(rng, core.ManualFeatures, core.NormalizerForTrace(tr, metrics.BSLD), nil)
	dec := model.Greedy()
	st := &sim.State{
		Job:     workload.Job{Est: 3600, Procs: 16},
		JobWait: 120, FreeProcs: 64, TotalProcs: 128, Runnable: true,
		Queue: []sim.QueueItem{
			{Wait: 60, Est: 600, Procs: 4},
			{Wait: 10, Est: 7200, Procs: 32},
			{Wait: 400, Est: 1800, Procs: 8},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec(st)
	}
}

// BenchmarkTrainingEpoch measures one full PPO epoch (trajectory sampling
// through the simulator plus the network update) at the paper's trajectory
// length.
func BenchmarkTrainingEpoch(b *testing.B) {
	tr := workload.SDSCSP2Like(6000, 3)
	trainer, err := core.NewTrainer(core.TrainConfig{
		Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 10, SeqLen: 128, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainer.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures raw scheduling throughput: one 256-job
// sequence under SJF without an inspector.
func BenchmarkSimulator(b *testing.B) {
	tr := workload.SDSCSP2Like(4000, 7)
	jobs := tr.Window(100, 256)
	cfg := sim.Config{MaxProcs: tr.MaxProcs, Policy: sched.SJF()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(jobs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvStep measures the per-decision cost of the steppable Env
// core: one interactive 256-job episode per iteration on a reused
// environment, with a deterministic decision rule answering every yield.
// Steady state must be allocation-free (TestEnvStepAllocs in internal/sim
// pins it at exactly zero); the ns/decision metric is the figure the
// rollout drivers pay per scheduling decision.
func BenchmarkEnvStep(b *testing.B) {
	tr := workload.SDSCSP2Like(4000, 7)
	jobs := tr.Window(100, 256)
	cfg := sim.Config{MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Backfill: true}
	if err := sim.ValidateJobs(jobs, cfg.MaxProcs); err != nil {
		b.Fatal(err)
	}
	cfg.NoValidate = true
	env := sim.NewEnv()
	episode := func() int {
		st, done, err := env.Reset(jobs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		decisions := 0
		for !done {
			decisions++
			st, done = env.Step(st.Rejections < 2 && st.Job.ID%5 == 0)
		}
		return decisions
	}
	episode() // warm up the reusable buffers
	b.ReportAllocs()
	b.ResetTimer()
	decisions := 0
	for i := 0; i < b.N; i++ {
		decisions += episode()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decisions), "ns/decision")
}

// BenchmarkSimulatorNilTracer is BenchmarkSimulator with the Tracer field
// explicitly nil: the guard for the tracing fast path. Disabled tracing is
// one nil check per event site, so this must stay within noise of
// BenchmarkSimulator.
func BenchmarkSimulatorNilTracer(b *testing.B) {
	tr := workload.SDSCSP2Like(4000, 7)
	jobs := tr.Window(100, 256)
	cfg := sim.Config{MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Tracer: nil}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(jobs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorTraced measures the enabled-tracing cost: the same
// sequence recording every event into the bounded ring (no sink).
func BenchmarkSimulatorTraced(b *testing.B) {
	tr := workload.SDSCSP2Like(4000, 7)
	jobs := tr.Window(100, 256)
	cfg := sim.Config{MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Tracer: obs.NewTracer(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(jobs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorBackfill is the same sequence with EASY backfilling.
func BenchmarkSimulatorBackfill(b *testing.B) {
	tr := workload.SDSCSP2Like(4000, 7)
	jobs := tr.Window(100, 256)
	cfg := sim.Config{MaxProcs: tr.MaxProcs, Policy: sched.SJF(), Backfill: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(jobs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPForward measures one forward pass of the paper's
// 32/16/8-hidden policy network.
func BenchmarkMLPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := nn.New(rng, []int{8, 32, 16, 8, 2}, nn.Tanh, nn.Identity)
	x := []float64{0.1, 0.5, 0.25, 0, 0.4, 0.5, 1, 0.2}
	var cache nn.Cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, &cache)
	}
}

// BenchmarkPPOUpdate measures one PPO update over a 1280-step batch (ten
// 128-job trajectories), serially (workers=1) and with the policy and value
// passes on two goroutines (workers=2).
func BenchmarkPPOUpdate(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { benchPPOUpdate(b, workers) })
	}
}

func benchPPOUpdate(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(2))
	agent := rl.NewAgent(rng, 8, core.DefaultHidden(), 2)
	ppo := rl.NewPPO(agent, rl.PPOConfig{}, workers)
	var batch []rl.Trajectory
	for t := 0; t < 10; t++ {
		var tr rl.Trajectory
		for s := 0; s < 128; s++ {
			obs := make([]float64, 8)
			for k := range obs {
				obs[k] = rng.Float64()
			}
			act, logp := agent.Sample(obs)
			tr.Steps = append(tr.Steps, rl.Step{Obs: obs, Action: act, LogP: logp})
		}
		tr.Reward = rng.Float64()*2 - 1
		batch = append(batch, tr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppo.Update(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures synthetic-workload generation.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.SDSCSP2Like(20000, int64(i))
	}
}

// BenchmarkLublinGeneration measures the Lublin-model generator.
func BenchmarkLublinGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		workload.LublinTrace(20000, int64(i))
	}
}

// TestPublicAPISurface is a compile-and-run check that the facade package
// exposes a working end-to-end path (tiny budget).
func TestPublicAPISurface(t *testing.T) {
	trace := insp.GenerateTrace("Lublin", 3000, 5)
	if err := trace.Validate(); err != nil {
		t.Fatal(err)
	}
	trainer, err := insp.NewTrainer(insp.TrainConfig{
		Trace: trace, Policy: insp.SJF(), Metric: insp.BSLD,
		Batch: 4, SeqLen: 64, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Train(2, nil); err != nil {
		t.Fatal(err)
	}
	res, err := insp.Evaluate(trainer.Inspector(), insp.EvalConfig{
		Trace: trace, Policy: insp.SJF(), Metric: insp.BSLD,
		Sequences: 3, SeqLen: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Base) != 3 {
		t.Fatalf("eval returned %d sequences", len(res.Base))
	}
	// model round trip through the facade
	path := t.TempDir() + "/m.gob"
	if err := trainer.Inspector().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := insp.LoadInspectorFile(path, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeSimAndSWF covers the remaining facade surface: direct
// simulation, trace stats, SWF round trip through files, and the Slurm
// constructor.
func TestFacadeSimAndSWF(t *testing.T) {
	tr := insp.GenerateTrace("SDSC-SP2", 400, 9)
	if got := insp.ComputeTraceStats(tr); got.Jobs != 400 {
		t.Fatalf("stats jobs = %d", got.Jobs)
	}
	res, err := insp.Simulate(tr.Window(0, 50), insp.SimConfig{
		MaxProcs: tr.MaxProcs, Policy: insp.NewSlurm(tr), Backfill: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 50 {
		t.Fatalf("simulated %d of 50", len(res.Results))
	}
	// The steppable facade: the same window driven decision by decision
	// through SimEnv must reproduce the straight-through run, and
	// SimulateEnv must match on a reused environment.
	env := insp.NewSimEnv()
	cfg := insp.SimConfig{MaxProcs: tr.MaxProcs, Policy: insp.SJF(), Backfill: true}
	_, done, err := env.Reset(tr.Window(0, 50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !done {
		_, done = env.Step(false) // accept everything = the base schedule
	}
	envSum := env.Result().Summary(tr.MaxProcs)
	if again, err := insp.SimulateEnv(env, tr.Window(0, 50), cfg); err != nil {
		t.Fatal(err)
	} else if got := again.Summary(tr.MaxProcs); got != envSum {
		t.Fatalf("SimulateEnv summary %+v != stepped env %+v", got, envSum)
	}
	path := t.TempDir() + "/t.swf.gz"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if err := insp.WriteSWF(gz, tr); err != nil {
		t.Fatal(err)
	}
	gz.Close()
	f.Close()
	got, err := insp.ParseSWFFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip %d jobs, want %d", got.Len(), tr.Len())
	}
	if len(insp.PaperTraces()) != 4 {
		t.Error("PaperTraces wrong")
	}
	if _, err := insp.PolicyByName("SRF"); err != nil {
		t.Error(err)
	}
	if _, err := insp.ParseMetric("mbsld"); err != nil {
		t.Error(err)
	}
}
