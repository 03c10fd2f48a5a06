package main

import (
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/nn"
)

// Standalone timings of the nn layer on a copy of the fixture's policy
// network, fed with observations recorded by the workload's traced run.

const (
	nnCalls     = 40000 // forward (and forward+backward) calls timed
	nnAdamSteps = 4000  // Adam steps timed
	nnBatchRows = 64    // rows per ForwardBatch, the serving path's MaxWave
)

// measureNN reports per-call forward, backward, Adam-step and batched
// forward times, plus the computed FLOPs of one PPO sample. policyIters is
// the mean policy passes per update (0: the PPO default of 10).
func measureNN(r *report, t *tracer, fix *core.Inspector, obs [][]float64, policyIters float64) {
	if len(obs) == 0 {
		r.fail("nn timings: no observations recorded")
		return
	}
	root := t.root("nn.standalone")
	defer t.end(root)
	m := fix.Agent.Policy.Clone()
	var cache nn.Cache
	calls := 0
	t0 := time.Now()
	for calls < nnCalls {
		for _, x := range obs {
			m.Forward(x, &cache)
		}
		calls += len(obs)
	}
	fwd := float64(time.Since(t0)) / float64(calls)

	g := nn.NewGrads(m)
	dOut := make([]float64, m.OutputSize())
	for i := range dOut {
		dOut[i] = 0.5 - float64(i)
	}
	calls = 0
	t0 = time.Now()
	for calls < nnCalls {
		for _, x := range obs {
			m.Forward(x, &cache)
			m.Backward(&cache, dOut, g)
		}
		calls += len(obs)
	}
	fwdBwd := float64(time.Since(t0)) / float64(calls)

	g.Scale(1 / float64(calls))
	opt := nn.NewAdam(m, 1e-3)
	t0 = time.Now()
	for i := 0; i < nnAdamSteps; i++ {
		opt.Step(m, g)
	}
	adam := float64(time.Since(t0)) / nnAdamSteps

	dim := m.InputSize()
	rows := len(obs) / nnBatchRows * nnBatchRows
	if rows == 0 {
		rows = len(obs)
	}
	flat := make([]float64, 0, rows*dim)
	for _, x := range obs[:rows] {
		flat = append(flat, x...)
	}
	var bc nn.BatchCache
	done := 0
	t0 = time.Now()
	for done < nnCalls {
		for lo := 0; lo < rows; lo += nnBatchRows {
			n := min(nnBatchRows, rows-lo)
			m.ForwardBatch(flat[lo*dim:(lo+n)*dim], n, &bc)
		}
		done += rows
	}
	batch := float64(time.Since(t0)) / float64(done)

	if policyIters == 0 {
		policyIters = 10
	}
	// A PPO sample costs a critic forward for its advantage, then per
	// policy pass and per critic pass one forward and one backward (about
	// twice a forward's FLOPs). Both passes default to 10.
	pol, val := flops(fix.Agent.Policy), flops(fix.Agent.Value)
	perSample := val + policyIters*3*pol + 10*3*val

	r.set("nn.forward_ns", fwd, "ns")
	r.set("nn.backward_ns", fwdBwd-fwd, "ns")
	r.set("nn.adam_step_ns", adam, "ns")
	r.set("nn.forward_batch_ns_per_row", batch, "ns")
	r.set("nn.flops_per_sample", perSample, "count")
}

// flops is the multiply-add count of one forward pass, two FLOPs each.
func flops(m *nn.MLP) float64 {
	f := 0.0
	for l := 0; l+1 < len(m.Sizes); l++ {
		f += 2 * float64(m.Sizes[l]*m.Sizes[l+1])
	}
	return f
}
