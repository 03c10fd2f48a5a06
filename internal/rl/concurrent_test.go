package rl

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
)

// gobBytes is v's gob encoding, which stores every float64 as its IEEE-754
// bit pattern: equal bytes mean bit-identical values.
func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentUpdateBitIdentical runs the same batches through a serial
// PPO and a 2-worker PPO, whose policy and value passes run on two
// goroutines, and requires the weights, both Adam states and every
// UpdateStats field to match bit for bit after each update.
func TestConcurrentUpdateBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cfg        PPOConfig
		concurrent bool
	}{
		{"defaults", PPOConfig{}, true},
		{"no-critic", PPOConfig{NoCritic: true}, false},
		// The policy pass stops after two iterations on KL while the value
		// pass runs all ten.
		{"early-stop", PPOConfig{TargetKL: 1e-12}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serialAgent := NewAgent(rand.New(rand.NewSource(5)), 8, []int{32, 16, 8}, 2)
			concAgent := serialAgent.Clone(nil)
			serial := NewPPO(serialAgent, tc.cfg, 1)
			conc := NewPPO(concAgent, tc.cfg, 2)
			if serial.concurrent || conc.concurrent != tc.concurrent {
				t.Fatalf("concurrent = %v/%v, want false/%v", serial.concurrent, conc.concurrent, tc.concurrent)
			}
			rng := rand.New(rand.NewSource(6))
			for update := 0; update < 3; update++ {
				batch := syntheticBatch(rng, serialAgent, 4, 32)
				want, err := serial.Update(batch)
				if err != nil {
					t.Fatal(err)
				}
				got, err := conc.Update(batch)
				if err != nil {
					t.Fatal(err)
				}
				if tc.name == "early-stop" && want.PolicyIters >= 10 {
					t.Fatalf("policy pass ran %d iterations, want an early stop", want.PolicyIters)
				}
				if !bytes.Equal(gobBytes(t, got), gobBytes(t, want)) {
					t.Fatalf("update %d: stats %+v, serial %+v", update, got, want)
				}
				if !bytes.Equal(gobBytes(t, concAgent.Policy), gobBytes(t, serialAgent.Policy)) ||
					!bytes.Equal(gobBytes(t, concAgent.Value), gobBytes(t, serialAgent.Value)) {
					t.Fatalf("update %d: weights differ from the serial update", update)
				}
				if !bytes.Equal(gobBytes(t, conc.OptimizerState()), gobBytes(t, serial.OptimizerState())) {
					t.Fatalf("update %d: optimizer state differs from the serial update", update)
				}
			}
		})
	}
}

// syntheticBatch samples trajs trajectories of steps random observations
// from agent's policy, each with a random terminal reward.
func syntheticBatch(rng *rand.Rand, agent *Agent, trajs, steps int) []Trajectory {
	sampler := agent.Clone(rand.New(rand.NewSource(rng.Int63())))
	batch := make([]Trajectory, trajs)
	for b := range batch {
		for s := 0; s < steps; s++ {
			obs := make([]float64, agent.Policy.InputSize())
			for k := range obs {
				obs[k] = rng.NormFloat64()
			}
			act, logp := sampler.Sample(obs)
			batch[b].Steps = append(batch[b].Steps, Step{Obs: obs, Action: act, LogP: logp})
		}
		batch[b].Reward = rng.Float64()*2 - 1
	}
	return batch
}
