package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/rlsched"
	"schedinspector/internal/rollout"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// TestStreamRNGDeterministic pins the derivation property the whole engine
// rests on: a trajectory's stream depends only on (seed, tags), never on
// which worker or in what order it runs.
func TestStreamRNGDeterministic(t *testing.T) {
	a := streamRNG(42, streamTrain, 3, 7)
	b := streamRNG(42, streamTrain, 3, 7)
	for i := 0; i < 10; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("same tags diverged at draw %d: %d vs %d", i, x, y)
		}
	}
	if streamSeed(42, streamTrain, 3, 7) == streamSeed(42, streamTrain, 3, 8) {
		t.Error("adjacent trajectory indices produced the same stream seed")
	}
	if streamSeed(42, streamTrain, 3) == streamSeed(42, streamEval, 3) {
		t.Error("train and eval purposes produced the same stream seed")
	}
	if streamSeed(1, streamTrain) == streamSeed(2, streamTrain) {
		t.Error("different base seeds produced the same stream seed")
	}
}

// trainStats runs a short training with the given worker count and returns
// the per-epoch statistics plus the serialized trained model.
func trainStats(t *testing.T, tr *workload.Trace, pol sched.Policy, workers int) ([]EpochStats, []byte) {
	t.Helper()
	trainer, err := NewTrainer(TrainConfig{
		Trace: tr, Policy: pol, Metric: metrics.BSLD,
		Batch: 6, SeqLen: 64, Seed: 11, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := trainer.Train(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trainer.Inspector().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return hist, buf.Bytes()
}

// TestRunEpochWorkerEquivalence is the tentpole guarantee: training with a
// worker pool is bit-identical to sequential training — same epoch
// statistics (wall clock aside) and the same serialized model.
func TestRunEpochWorkerEquivalence(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 7)
	for _, pol := range []sched.Policy{sched.SJF(), sched.NewSlurm(tr)} {
		seqHist, seqModel := trainStats(t, tr, pol, 1)
		parHist, parModel := trainStats(t, tr, pol, 8)
		if len(seqHist) != len(parHist) {
			t.Fatalf("%s: epoch counts differ: %d vs %d", pol.Name(), len(seqHist), len(parHist))
		}
		for i := range seqHist {
			a, b := seqHist[i], parHist[i]
			a.Seconds, b.Seconds = 0, 0 // wall clock is the one legitimate difference
			if a != b {
				t.Errorf("%s: epoch %d stats differ:\n  workers=1: %+v\n  workers=8: %+v", pol.Name(), i+1, a, b)
			}
		}
		if !bytes.Equal(seqModel, parModel) {
			t.Errorf("%s: serialized models differ between workers=1 and workers=8", pol.Name())
		}
	}
}

// TestEvaluateWorkerEquivalence checks the evaluation half of the guarantee,
// including order independence: with 8 workers the completion order of
// sequences is scheduler-dependent, yet the reduced result must be identical
// to the sequential run.
func TestEvaluateWorkerEquivalence(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 6)
	insp := newTestInspector(t, ManualFeatures)
	for _, pol := range []sched.Policy{sched.SJF(), sched.NewSlurm(tr)} {
		cfg := EvalConfig{
			Trace: tr, Policy: pol, Metric: metrics.BSLD,
			Sequences: 8, SeqLen: 64, Seed: 3,
		}
		cfg.Workers = 1
		seq, err := Evaluate(insp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 8
		par, err := Evaluate(insp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Inspections != par.Inspections || seq.Rejections != par.Rejections {
			t.Errorf("%s: counts differ: %d/%d vs %d/%d", pol.Name(),
				seq.Inspections, seq.Rejections, par.Inspections, par.Rejections)
		}
		for i := range seq.Base {
			if seq.Base[i] != par.Base[i] || seq.Insp[i] != par.Insp[i] {
				t.Errorf("%s: sequence %d summaries differ between worker counts", pol.Name(), i)
			}
		}
	}
}

// TestTrainConfigValidate covers the satellite: deliberately out-of-range
// fields are rejected with errors naming the field, instead of being
// silently zero-defaulted or crashing mid-training.
func TestTrainConfigValidate(t *testing.T) {
	tr := workload.SDSCSP2Like(2000, 1)
	base := func() TrainConfig {
		return TrainConfig{Trace: tr, Policy: sched.SJF(), Batch: 4, SeqLen: 64}
	}
	cases := []struct {
		name string
		mut  func(*TrainConfig)
		want string // substring the error must contain
	}{
		{"negative SeqLen", func(c *TrainConfig) { c.SeqLen = -1 }, "SeqLen"},
		{"negative Batch", func(c *TrainConfig) { c.Batch = -2 }, "Batch"},
		{"negative LR", func(c *TrainConfig) { c.LR = -1e-3 }, "LR"},
		{"NaN LR", func(c *TrainConfig) { c.LR = math.NaN() }, "LR"},
		{"infinite LR", func(c *TrainConfig) { c.LR = math.Inf(1) }, "LR"},
		{"negative TrainFrac", func(c *TrainConfig) { c.TrainFrac = -0.1 }, "TrainFrac"},
		{"TrainFrac above 1", func(c *TrainConfig) { c.TrainFrac = 1.5 }, "TrainFrac"},
		{"negative MaxInterval", func(c *TrainConfig) { c.MaxInterval = -600 }, "MaxInterval"},
		{"NaN MaxInterval", func(c *TrainConfig) { c.MaxInterval = math.NaN() }, "MaxInterval"},
		{"negative MaxRejections", func(c *TrainConfig) { c.MaxRejections = -1 }, "MaxRejections"},
		{"negative Workers", func(c *TrainConfig) { c.Workers = -4 }, "Workers"},
		{"negative BaselineCacheSize", func(c *TrainConfig) { c.BaselineCacheSize = -1 }, "BaselineCacheSize"},
		{"zero hidden layer", func(c *TrainConfig) { c.Hidden = []int{32, 0} }, "Hidden"},
		{"negative World", func(c *TrainConfig) { c.World = -1 }, "World"},
		{"World above Batch", func(c *TrainConfig) { c.World = 5 /* Batch is 4 */ }, "World"},
		{"negative Rank", func(c *TrainConfig) {
			c.World, c.Rank, c.Peers = 2, -1, []string{"a.sock", "b.sock"}
		}, "Rank"},
		{"Rank at World", func(c *TrainConfig) {
			c.World, c.Rank, c.Peers = 2, 2, []string{"a.sock", "b.sock"}
		}, "Rank"},
		{"too few peers", func(c *TrainConfig) {
			c.World, c.Peers = 3, []string{"a.sock", "b.sock"}
		}, "Peers"},
		{"too many peers", func(c *TrainConfig) {
			c.World, c.Peers = 2, []string{"a.sock", "b.sock", "c.sock"}
		}, "Peers"},
		{"peers without world", func(c *TrainConfig) { c.Peers = []string{"a.sock"} }, "Peers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			_, err := NewTrainer(cfg)
			if err == nil {
				t.Fatalf("config accepted: %+v", cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
	// The zero-valued optional fields must still take their defaults.
	if _, err := NewTrainer(base()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// A well-formed distributed config must pass.
	dc := base()
	dc.World, dc.Rank, dc.Peers = 2, 1, []string{"a.sock", "b.sock"}
	if _, err := NewTrainer(dc); err != nil {
		t.Fatalf("valid distributed config rejected: %v", err)
	}
}

func TestBaselineCacheBound(t *testing.T) {
	c := newBaselineCache(4)
	compute := func(k int) func() (metrics.Summary, error) {
		return func() (metrics.Summary, error) { return metrics.Summary{Jobs: k}, nil }
	}
	for k := 0; k < 10; k++ {
		if _, err := c.Get(k, compute(k)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > 4 {
		t.Errorf("cache holds %d entries, bound is 4", c.Len())
	}
	if _, _, ev := c.Stats(); ev != 6 {
		t.Errorf("evictions = %d, want 6", ev)
	}
}

func TestBaselineCacheLRU(t *testing.T) {
	c := newBaselineCache(3)
	var computes atomic.Int64
	get := func(k int) {
		t.Helper()
		if _, err := c.Get(k, func() (metrics.Summary, error) {
			computes.Add(1)
			return metrics.Summary{Jobs: k}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get(1)
	get(2)
	get(3)
	get(1) // refresh 1: the LRU entry is now 2
	get(4) // evicts 2
	n := computes.Load()
	get(1) // still cached
	get(3) // still cached
	if computes.Load() != n {
		t.Error("recently used entries were evicted")
	}
	get(2) // was evicted: must recompute
	if computes.Load() != n+1 {
		t.Error("evicted entry served stale data")
	}
}

func TestBaselineCacheSingleflight(t *testing.T) {
	c := newBaselineCache(0)
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	sums := make([]metrics.Summary, 16)
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			s, err := c.Get(7, func() (metrics.Summary, error) {
				computes.Add(1)
				return metrics.Summary{Jobs: 7, AvgBSLD: 1.5}, nil
			})
			if err != nil {
				t.Error(err)
			}
			sums[i] = s
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times under concurrent callers, want 1", n)
	}
	for i, s := range sums {
		if s != sums[0] {
			t.Fatalf("caller %d saw a different summary", i)
		}
	}
}

func TestBaselineCacheErrorRetry(t *testing.T) {
	c := newBaselineCache(0)
	boom := errors.New("boom")
	calls := 0
	_, err := c.Get(1, func() (metrics.Summary, error) { calls++; return metrics.Summary{}, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("error not surfaced: %v", err)
	}
	if c.Len() != 0 {
		t.Error("failed computation left a poisoned entry")
	}
	s, err := c.Get(1, func() (metrics.Summary, error) { calls++; return metrics.Summary{Jobs: 9}, nil })
	if err != nil || s.Jobs != 9 || calls != 2 {
		t.Errorf("retry after error: sum=%+v err=%v calls=%d", s, err, calls)
	}
}

// statefulNoClone is a stateful policy without ClonePolicy — the case that
// must force the pool back to a single worker.
type statefulNoClone struct{ sched.Policy }

func (statefulNoClone) Reset() {}

func TestPolicyClones(t *testing.T) {
	// Stateless policies are shared across workers (the dynamic value is an
	// uncomparable struct, so assert sharing through behavior: every slot is
	// populated with a working policy).
	sjf := sched.SJF()
	pols, ok := rollout.PolicyClones(sjf, 4)
	if !ok || len(pols) != 4 {
		t.Fatalf("stateless: ok=%v len=%d", ok, len(pols))
	}
	for i, p := range pols {
		if p == nil || p.Name() != sjf.Name() {
			t.Errorf("slot %d does not hold the stateless policy: %v", i, p)
		}
	}

	// Cloneable stateful policies get one private instance per worker.
	tr := workload.SDSCSP2Like(500, 2)
	slurm := sched.NewSlurm(tr)
	pols, ok = rollout.PolicyClones(slurm, 3)
	if !ok || len(pols) != 3 {
		t.Fatalf("slurm: ok=%v len=%d", ok, len(pols))
	}
	if pols[0] != sched.Policy(slurm) {
		t.Error("original policy not at index 0")
	}
	if pols[1] == pols[0] || pols[2] == pols[0] || pols[1] == pols[2] {
		t.Error("slurm clones are not distinct instances")
	}

	// Stateful without Cloner: sequential fallback.
	if pols, ok = rollout.PolicyClones(statefulNoClone{sched.SJF()}, 4); ok || len(pols) != 1 {
		t.Errorf("stateful non-cloner: ok=%v len=%d, want fallback", ok, len(pols))
	}

	// rlsched in sampling mode declines to clone: sequential fallback.
	rp := rlsched.New(rand.New(rand.NewSource(1)), rlsched.NormForTrace(tr), nil)
	rp.SetSampling(true, &[]rlsched.Step{})
	if pols, ok = rollout.PolicyClones(rp, 4); ok || len(pols) != 1 {
		t.Errorf("sampling rlsched: ok=%v len=%d, want fallback", ok, len(pols))
	}
	// ...but clones fine outside sampling mode.
	rp.SetSampling(false, nil)
	if pols, ok = rollout.PolicyClones(rp, 2); !ok || len(pols) != 2 || pols[0] == pols[1] {
		t.Errorf("plain rlsched: ok=%v len=%d", ok, len(pols))
	}

	// One worker never needs clones, whatever the policy.
	if pols, ok = rollout.PolicyClones(statefulNoClone{sched.SJF()}, 1); !ok || len(pols) != 1 {
		t.Errorf("single worker: ok=%v len=%d", ok, len(pols))
	}
}

// TestRolloutMetricsPublished checks that a training epoch and an evaluation
// pass feed the obs instruments: worker gauges, trajectory latency samples,
// and the baseline-cache counters all appear in the rendered registry.
func TestRolloutMetricsPublished(t *testing.T) {
	tr := workload.SDSCSP2Like(3000, 8)
	reg := obs.NewRegistry()
	m := NewRolloutMetrics(reg)
	trainer, err := NewTrainer(TrainConfig{
		Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 4, SeqLen: 64, Seed: 2, Workers: 2, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(trainer.Inspector(), EvalConfig{
		Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
		Sequences: 3, SeqLen: 64, Seed: 4, Workers: 2, Metrics: m,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"schedinspector_rollout_workers 2",
		"schedinspector_rollout_worker_utilization",
		"schedinspector_rollout_trajectory_seconds",
		"schedinspector_baseline_cache_entries",
		"schedinspector_baseline_cache_misses_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q", want)
		}
	}
	if !strings.Contains(out, "schedinspector_rollout_trajectory_seconds_count 7") {
		t.Errorf("expected 7 trajectory observations (4 train + 3 eval) in:\n%s", out)
	}
	// One training epoch: one rollout and one update observation; the
	// evaluation pass is not a training phase and adds none.
	for _, phase := range []string{"rollout", "update"} {
		want := `schedinspector_train_phase_seconds_count{phase="` + phase + `"} 1`
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q", want)
		}
	}
}

func TestRunIndexed(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var sum atomic.Int64
		seen := make([]atomic.Bool, 20)
		busy, wall := rollout.RunIndexed(workers, 20, func(w, i int) {
			if w < 0 || w >= workers {
				t.Errorf("worker id %d out of range", w)
			}
			if seen[i].Swap(true) {
				t.Errorf("index %d executed twice", i)
			}
			sum.Add(int64(i))
		})
		if sum.Load() != 190 {
			t.Errorf("workers=%d: indices incomplete, sum=%d", workers, sum.Load())
		}
		if busy < 0 || wall < 0 {
			t.Errorf("negative durations: busy=%v wall=%v", busy, wall)
		}
	}
	if busy, wall := rollout.RunIndexed(4, 0, func(int, int) { t.Error("fn called for n=0") }); busy != 0 || wall != 0 {
		t.Error("n=0 reported nonzero durations")
	}
}

// BenchmarkRunEpochWorkers measures one training epoch at increasing worker
// counts. The PPO update dominates the epoch, so the rollout fan-out alone
// moves it little; from 2 workers on, the update runs its policy and value
// passes on two cores, which bounds the speedup at about 2x however many
// workers or cores there are. On a single core all cases cost the same
// (the goroutines add only scheduling noise).
func BenchmarkRunEpochWorkers(b *testing.B) {
	tr := workload.SDSCSP2Like(6000, 17)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			trainer, err := NewTrainer(TrainConfig{
				Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
				Batch: 16, SeqLen: 64, Seed: 29, Workers: workers,
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
		})
	}
}
