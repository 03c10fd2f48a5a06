package rl

import (
	"math/rand"
	"testing"
)

// TestNoCriticStillLearns verifies the REINFORCE-style ablation path: it
// should still solve the contextual bandit (the task is easy), while never
// training the critic.
func TestNoCriticStillLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := NewAgent(rng, 1, []int{16, 8}, 2)
	before := a.Value.Clone()
	ppo := NewPPO(a, PPOConfig{LR: 3e-3, NoCritic: true}, 1)
	var last UpdateStats
	for epoch := 0; epoch < 60; epoch++ {
		st, err := ppo.Update(banditBatch(a, rng, 16, 32))
		if err != nil {
			t.Fatal(err)
		}
		last = st
	}
	if last.MeanReward < 0.85 {
		t.Errorf("no-critic PPO accuracy %v, want >= 0.85", last.MeanReward)
	}
	if last.ValueLoss != 0 {
		t.Errorf("value loss %v reported with critic disabled", last.ValueLoss)
	}
	// critic parameters must be untouched
	for l := range before.W {
		for i := range before.W[l] {
			if a.Value.W[l][i] != before.W[l][i] {
				t.Fatal("critic weights changed despite NoCritic")
			}
		}
	}
}

// TestCriticReducesVariance compares epoch-reward variance with and without
// the baseline on a task with state-dependent reward offsets, mirroring the
// paper's §3.1 observation. The assertion is directional with a generous
// margin since both runs are stochastic.
func TestCriticReducesVariance(t *testing.T) {
	if testing.Short() {
		t.Skip("variance comparison skipped in -short mode")
	}
	variance := func(noCritic bool, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		a := NewAgent(rng, 1, []int{8}, 2)
		ppo := NewPPO(a, PPOConfig{LR: 1e-3, NoCritic: noCritic}, 1)
		var kls []float64
		for epoch := 0; epoch < 30; epoch++ {
			// reward has a large state-dependent component the critic can
			// absorb: base offset 2*obs plus the action-quality term.
			var batch []Trajectory
			for i := 0; i < 8; i++ {
				var tr Trajectory
				off := rng.Float64()
				for k := 0; k < 16; k++ {
					obs := []float64{off}
					act, logp := a.Sample(obs)
					tr.Steps = append(tr.Steps, Step{Obs: obs, Action: act, LogP: logp})
				}
				tr.Reward = 2*off + 0.1*rng.Float64()
				batch = append(batch, tr)
			}
			st, err := ppo.Update(batch)
			if err != nil {
				t.Fatal(err)
			}
			kls = append(kls, st.ApproxKL)
		}
		var mean, m2 float64
		for i, v := range kls {
			d := v - mean
			mean += d / float64(i+1)
			m2 += d * (v - mean)
		}
		return m2 / float64(len(kls))
	}
	// Average over a few seeds to stabilize the comparison.
	var with, without float64
	for s := int64(0); s < 3; s++ {
		with += variance(false, 100+s)
		without += variance(true, 100+s)
	}
	t.Logf("KL variance with critic %g, without %g", with, without)
	// The reward here is almost entirely state-dependent noise, so the
	// critic-less agent's policy updates should be at least as turbulent.
	if without < with/10 {
		t.Errorf("no-critic variance (%g) implausibly below actor-critic (%g)", without, with)
	}
}
