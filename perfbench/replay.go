package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"schedinspector/internal/core"
	"schedinspector/internal/explain"
	"schedinspector/internal/obs"
	"schedinspector/internal/online"
	"schedinspector/internal/serve"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// Replays split a path the benchmark can only time as a whole into its
// stages, by calling each stage's public function in the order the program
// does. They mirror today's code: the serving split follows the /v1/inspect
// handler and the cycle split follows online.Loop.RunCycle with the loop's
// default configuration. A later rewrite inside the program is not
// followed until the replays are updated with it.

const (
	replayBodies = 2000 // harvested bodies replayed through the serving stages
	replayCycles = 3    // online cycles replayed stage by stage

	// online.Config defaults, which RunCycle uses in serve_online.
	onlineMaxWindow    = 8192
	onlineHoldoutFrac  = 0.2
	onlineEpochs       = 2
	onlineBatch        = 8
	onlineSeqLen       = 64
	onlineLR           = 1e-4
	onlineShadowSeqs   = 8
	onlineShadowSeqLen = 64
)

// replayServe replays harvested bodies through the calls /v1/inspect makes,
// in the handler's order: JSON decode, queue copy + sim.NewState,
// Inspector.Explain, TraceRing.EmitDecision, ExplainRecorder.Record, JSON
// encode. The handler answers a wave with one batched forward;
// Inspector.Explain is the one-row equivalent.
func replayServe(r *report, t *tracer, hv *harvest, fix *core.Inspector, seed int64) {
	clone := fix.Clone(rand.New(rand.NewSource(seed)))
	names, mode, maxRej := fix.Mode.FeatureNames(), fix.Mode.String(), fix.Norm.MaxRejections
	ring := obs.NewTraceRing(0, 0)
	ring.SetMeta(names, mode, maxRej)
	recorder := obs.NewExplainRecorder(serve.DefaultServeExplainCap)
	recorder.SetMeta(names, mode, maxRej)
	var buf bytes.Buffer
	n := min(replayBodies, len(hv.bodies))
	for i := 0; i < n; i++ {
		root := t.root("serve.replay")
		var (
			req  serve.InspectRequest
			err  error
			st   *sim.State
			rec  obs.ExplainRecord
			resp serve.InspectResponse
		)
		t.timed("serve.decode", root, func() {
			err = json.NewDecoder(bytes.NewReader(hv.bodies[i])).Decode(&req)
		})
		if err != nil {
			r.fail("replay decode body %d: %v", i, err)
			t.end(root)
			continue
		}
		t.timed("sim.state", root, func() { st = stateFrom(&req) })
		t.timed("core.explain", root, func() {
			action, feat, logits, probs := clone.Explain(st, false)
			util := 1 - float64(req.FreeProcs)/float64(req.TotalProcs)
			rec = obs.ExplainRecord{
				Seq: i, Wait: req.Job.Wait, Procs: req.Job.Procs, Est: req.Job.Est,
				Rejections: req.Rejections, MaxRejections: maxRej,
				QueueLen: len(req.Queue) + 1, FreeProcs: req.FreeProcs,
				TotalProcs: req.TotalProcs, Utilization: util,
				Features: feat, Logits: logits, Probs: probs,
				Action: action, Sampled: true, Rejected: action == core.ActionReject,
			}
			resp = serve.InspectResponse{Reject: rec.Rejected, RejectProb: probs[core.ActionReject]}
		})
		t.timed("obs.ring_emit", root, func() { ring.EmitDecision(&rec) })
		t.timed("obs.explain_record", root, func() { recorder.Record(rec) })
		buf.Reset()
		t.timed("serve.encode", root, func() { err = json.NewEncoder(&buf).Encode(resp) })
		t.end(root)
		r.check(err == nil, "replay encode body %d: %v", i, err)
	}
	st := t.selfTimes()
	for _, m := range []struct{ span, metric string }{
		{"serve.decode", "serve.decode_us"},
		{"sim.state", "sim.state_us"},
		{"core.explain", "core.explain_us"},
		{"obs.ring_emit", "obs.ring_emit_us"},
		{"obs.explain_record", "obs.explain_record_us"},
		{"serve.encode", "serve.encode_us"},
	} {
		r.set(m.metric, st[m.span].meanDur()/1e3, "us")
	}
}

// finishOnline checks the loop's end state and reports its cycles.
func finishOnline(o options, r *report, loop *online.Loop, cyc *cycleStats) {
	st := loop.Status()
	r.check(st.ServingGeneration == 1+int64(st.Promotions+st.Rollbacks),
		"serving generation %d != 1 + %d promotions + %d rollbacks",
		st.ServingGeneration, st.Promotions, st.Rollbacks)
	r.check(len(cyc.retrain) > 0, "no online cycle retrained during the run")
	r.note("online: %d cycles, %d retrained, %d did not (probation or collecting)",
		st.Cycles, len(cyc.retrain), cyc.other)
	cycleS := median(cyc.retrain)
	if !o.traced {
		r.set("cycle_s", cycleS, "s")
		return
	}
	r.set("online.cycle_s", cycleS, "s")
	r.set("online.retrains", float64(st.Retrains), "count")
	r.set("online.promotions", float64(st.Promotions), "count")
	r.set("online.rejections", float64(st.Rejections), "count")
	r.set("online.rollbacks", float64(st.Rollbacks), "count")
}

// replayOnline replays the stages of a retraining cycle on the live
// handler's ring and model: snapshot, tail, reconstruct, retrain, shadow
// evaluation, then the swap.
func replayOnline(r *report, t *tracer, h *serve.Handler, seed int64) error {
	for c := 0; c < replayCycles; c++ {
		root := t.root("online.replay")
		var (
			img         []byte
			recs        []obs.ExplainRecord
			train, hold *workload.Trace
			err, err2   error
			cand        *core.Inspector
		)
		t.timed("obs.snapshot", root, func() { img = h.TraceRing().Snapshot() })
		t.timed("explain.tail", root, func() { recs, _, err = explain.TailDecisions(img, -1) })
		if err != nil {
			return fmt.Errorf("replay tail: %w", err)
		}
		if len(recs) > onlineMaxWindow {
			recs = recs[len(recs)-onlineMaxWindow:]
		}
		holdN := int(float64(len(recs)) * onlineHoldoutFrac)
		t.timed("online.reconstruct", root, func() {
			train, err = online.ReconstructTrace(recs[:len(recs)-holdN], "replay-train")
			hold, err2 = online.ReconstructTrace(recs[len(recs)-holdN:], "replay-holdout")
		})
		if err != nil || err2 != nil {
			return fmt.Errorf("replay reconstruct: %v / %v", err, err2)
		}
		serving, _ := h.Current()
		cycleSeed := seed + int64(c)
		t.timed("online.retrain", root, func() { cand, err = retrainLikeLoop(serving, train, cycleSeed) })
		if err != nil {
			return fmt.Errorf("replay retrain: %w", err)
		}
		t.timed("online.shadow_eval", root, func() {
			for _, m := range []*core.Inspector{cand, serving} {
				if _, e := core.Evaluate(m, shadowConfig(m, hold, cycleSeed)); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return fmt.Errorf("replay shadow eval: %w", err)
		}
		t.timed("serve.swap", root, func() { h.Swap(serving) })
		t.end(root)
		r.ok()
	}
	st := t.selfTimes()
	r.set("obs.snapshot_ms", st["obs.snapshot"].meanDur()/1e6, "ms")
	r.set("explain.tail_ms", st["explain.tail"].meanDur()/1e6, "ms")
	r.set("online.reconstruct_ms", st["online.reconstruct"].meanDur()/1e6, "ms")
	r.set("online.retrain_s", st["online.retrain"].meanDur()/1e9, "s")
	r.set("online.shadow_eval_s", st["online.shadow_eval"].meanDur()/1e9, "s")
	r.set("serve.swap_us", st["serve.swap"].meanDur()/1e3, "us")
	return nil
}

// retrainLikeLoop fine-tunes a candidate the way the loop does: warm-started
// from the serving model, a few small epochs on the reconstructed window.
func retrainLikeLoop(serving *core.Inspector, tr *workload.Trace, seed int64) (*core.Inspector, error) {
	tn, err := core.NewTrainerFrom(core.TrainConfig{
		Trace: tr, Policy: sjf(), Metric: serving.Norm.Metric,
		RewardKind: core.PercentageReward, FeatureMode: serving.Mode,
		SeqLen: min(onlineSeqLen, tr.Len()), Batch: onlineBatch, LR: onlineLR,
		Seed: seed, TrainFrac: 1,
		MaxInterval: serving.Norm.MaxInterval, MaxRejections: serving.Norm.MaxRejections,
	}, serving)
	if err != nil {
		return nil, err
	}
	for e := 0; e < onlineEpochs; e++ {
		if _, err := tn.RunEpoch(); err != nil {
			return nil, err
		}
	}
	return tn.Inspector(), nil
}

// shadowConfig is the loop's shadow-evaluation config on a holdout.
func shadowConfig(m *core.Inspector, hold *workload.Trace, seed int64) core.EvalConfig {
	return core.EvalConfig{
		Trace: hold, Policy: sjf(), Metric: m.Norm.Metric,
		Sequences: onlineShadowSeqs, SeqLen: min(onlineShadowSeqLen, hold.Len()),
		TestFrom: 1e-12, Seed: seed,
		MaxInterval: m.Norm.MaxInterval, MaxRejections: m.Norm.MaxRejections,
	}
}
