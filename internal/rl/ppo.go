// Package rl implements the reinforcement-learning machinery SchedInspector
// trains with (§3, §4.1): a categorical actor-critic over two small MLPs and
// Proximal Policy Optimization with a clipped surrogate objective, entropy
// regularization and approximate-KL early stopping.
//
// Rewards are sparse: the paper holds intermediate rewards at zero and pays
// a single terminal reward per trajectory, so with an undiscounted horizon
// every step's return equals the trajectory's final reward; the critic
// supplies the variance-reducing baseline.
package rl

import (
	"fmt"
	"math"
	"math/rand"

	"schedinspector/internal/nn"
)

// Step is one agent interaction: an observation, the sampled action, and
// the log-probability the behavior policy assigned to it.
type Step struct {
	Obs    []float64
	Action int
	LogP   float64
}

// Trajectory is a full episode: its steps and the terminal reward.
type Trajectory struct {
	Steps  []Step
	Reward float64
}

// Agent is a categorical actor-critic.
type Agent struct {
	Policy *nn.MLP // obs -> action logits
	Value  *nn.MLP // obs -> scalar state value

	rng      *rand.Rand
	polCache nn.Cache
	valCache nn.Cache
	probs    []float64
}

// NewAgent builds an actor-critic pair. Both networks share the same hidden
// architecture (the paper's policy and value networks are identical): hidden
// layer sizes hidden, tanh activations, nActions policy logits and a scalar
// value head.
func NewAgent(rng *rand.Rand, obsDim int, hidden []int, nActions int) *Agent {
	if obsDim <= 0 || nActions < 2 {
		panic("rl: need positive obs dim and at least 2 actions")
	}
	polSizes := append(append([]int{obsDim}, hidden...), nActions)
	valSizes := append(append([]int{obsDim}, hidden...), 1)
	return &Agent{
		Policy: nn.New(rng, polSizes, nn.Tanh, nn.Identity),
		Value:  nn.New(rng, valSizes, nn.Tanh, nn.Identity),
		rng:    rng,
		probs:  make([]float64, nActions),
	}
}

// AgentFromNets wraps already-built policy and value networks in an agent
// without reinitializing any weights — the deserialization path (model
// files, training checkpoints). rng drives action sampling and may be nil
// when only Greedy, ActionProb or StateValue will be called.
func AgentFromNets(policy, value *nn.MLP, rng *rand.Rand) *Agent {
	if policy == nil || value == nil {
		panic("rl: AgentFromNets needs both networks")
	}
	return &Agent{
		Policy: policy,
		Value:  value,
		rng:    rng,
		probs:  make([]float64, policy.OutputSize()),
	}
}

// Clone returns an agent with deep-copied networks, private scratch
// buffers, and rng as its sampling stream — the read-only policy snapshot a
// rollout worker owns, which later optimizer steps on the original can
// never race with. rng may be nil when only Greedy, ActionProb or
// StateValue will be called; install one later with Reseed.
func (a *Agent) Clone(rng *rand.Rand) *Agent {
	return &Agent{
		Policy: a.Policy.Clone(),
		Value:  a.Value.Clone(),
		rng:    rng,
		probs:  make([]float64, len(a.probs)),
	}
}

// Reseed replaces the agent's sampling stream. The rollout engine uses it to
// hand every trajectory its own deterministic RNG derived from
// (seed, epoch, trajectory index).
func (a *Agent) Reseed(rng *rand.Rand) { a.rng = rng }

// Sample draws an action from the current policy and returns it with its
// log-probability.
func (a *Agent) Sample(obs []float64) (action int, logp float64) {
	logits := a.Policy.Forward(obs, &a.polCache)
	return SampleCategorical(a.rng, logits, a.probs)
}

// SampleCategorical draws one action from the categorical distribution the
// logits define, consuming exactly one rng.Float64, and returns it with its
// log-probability. probs is softmax scratch (len >= len(logits)). It is the
// sampling kernel shared by Agent.Sample and the batched rollout driver,
// which forwards whole decision waves at once and then samples each row
// from that row's private trajectory stream — factoring the kernel out
// guarantees the two paths consume RNG draws identically.
func SampleCategorical(rng *rand.Rand, logits, probs []float64) (action int, logp float64) {
	p := nn.Softmax(logits, probs)
	u := rng.Float64()
	action = len(p) - 1
	acc := 0.0
	for i, pi := range p {
		acc += pi
		if u <= acc {
			action = i
			break
		}
	}
	return action, math.Log(math.Max(p[action], 1e-12))
}

// SampleExplain is Sample with the policy's internals exported: it draws an
// action exactly as Sample does — same forward pass, same single rng.Float64
// — and additionally returns copies of the raw logits and the softmax
// probabilities, the flight recorder's explain payload. Interleaving
// SampleExplain and Sample calls on one agent leaves the RNG stream
// identical to calling Sample throughout.
func (a *Agent) SampleExplain(obs []float64) (action int, logp float64, logits, probs []float64) {
	lg := a.Policy.Forward(obs, &a.polCache)
	action, logp = SampleCategorical(a.rng, lg, a.probs)
	return action, logp,
		append([]float64(nil), lg...),
		append([]float64(nil), a.probs...)
}

// GreedyExplain is Greedy with the policy's internals exported: the argmax
// action plus copies of the logits and softmax probabilities. It never
// touches the sampling RNG.
func (a *Agent) GreedyExplain(obs []float64) (action int, logits, probs []float64) {
	lg := a.Policy.Forward(obs, &a.polCache)
	p := nn.Softmax(lg, a.probs)
	action = 0
	for i := 1; i < len(lg); i++ {
		if lg[i] > lg[action] {
			action = i
		}
	}
	return action, append([]float64(nil), lg...), append([]float64(nil), p...)
}

// Greedy returns the argmax action of the current policy (inference mode).
func (a *Agent) Greedy(obs []float64) int {
	logits := a.Policy.Forward(obs, &a.polCache)
	best := 0
	for i := 1; i < len(logits); i++ {
		if logits[i] > logits[best] {
			best = i
		}
	}
	return best
}

// ActionProb returns the probability the policy assigns to action for obs.
func (a *Agent) ActionProb(obs []float64, action int) float64 {
	logits := a.Policy.Forward(obs, &a.polCache)
	return nn.Softmax(logits, a.probs)[action]
}

// StateValue returns the critic's value estimate for obs.
func (a *Agent) StateValue(obs []float64) float64 {
	return a.Value.Forward(obs, &a.valCache)[0]
}

// PPOConfig holds the optimization hyperparameters.
type PPOConfig struct {
	LR          float64 // Adam learning rate for both networks (paper: 1e-3)
	ClipRatio   float64 // PPO clipping epsilon (default 0.2)
	PolicyIters int     // gradient passes over the batch per update (default 10)
	ValueIters  int     // critic passes per update (default 10)
	TargetKL    float64 // early-stop threshold on approx KL (default 0.015)
	EntropyCoef float64 // entropy bonus weight (default 0.01)
	MaxGradNorm float64 // global-norm gradient clip (default 1.0)

	// NoCritic disables the value-network baseline: advantages are the raw
	// (normalized) returns and the critic is not trained. The paper's §3.1
	// reports high training variance in this configuration; the repository
	// keeps it as an ablation.
	NoCritic bool
}

func (c PPOConfig) withDefaults() PPOConfig {
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.ClipRatio == 0 {
		c.ClipRatio = 0.2
	}
	if c.PolicyIters == 0 {
		c.PolicyIters = 10
	}
	if c.ValueIters == 0 {
		c.ValueIters = 10
	}
	if c.TargetKL == 0 {
		c.TargetKL = 0.015
	}
	if c.EntropyCoef == 0 {
		c.EntropyCoef = 0.01
	}
	if c.MaxGradNorm == 0 {
		c.MaxGradNorm = 1.0
	}
	return c
}

// PPO optimizes an Agent from batches of trajectories.
type PPO struct {
	cfg    PPOConfig
	agent  *Agent
	polOpt *nn.Adam
	valOpt *nn.Adam
	polG   *nn.Grads
	valG   *nn.Grads

	// concurrent runs the value pass on its own goroutine beside the
	// policy pass (see Update).
	concurrent bool
}

// NewPPO creates the optimizer for agent. workers is the trainer's
// fan-out: with 2 or more, and the critic on, Update runs the policy and
// value passes on two goroutines. Results are bit-identical at any count.
func NewPPO(agent *Agent, cfg PPOConfig, workers int) *PPO {
	cfg = cfg.withDefaults()
	return &PPO{
		cfg:        cfg,
		agent:      agent,
		polOpt:     nn.NewAdam(agent.Policy, cfg.LR),
		valOpt:     nn.NewAdam(agent.Value, cfg.LR),
		polG:       nn.NewGrads(agent.Policy),
		valG:       nn.NewGrads(agent.Value),
		concurrent: workers >= 2 && !cfg.NoCritic,
	}
}

// OptimizerState is the serializable state of both Adam optimizers — the
// part of a PPO trainer that outlives the network weights in a checkpoint.
type OptimizerState struct {
	Policy nn.AdamState
	Value  nn.AdamState
}

// OptimizerState deep-copies the current optimizer state for
// checkpointing.
func (p *PPO) OptimizerState() OptimizerState {
	return OptimizerState{Policy: p.polOpt.State(), Value: p.valOpt.State()}
}

// RestoreOptimizer installs a checkpointed optimizer state. Shapes must
// match the agent the PPO was built for.
func (p *PPO) RestoreOptimizer(s OptimizerState) error {
	if err := p.polOpt.Restore(s.Policy); err != nil {
		return fmt.Errorf("rl: policy optimizer: %w", err)
	}
	if err := p.valOpt.Restore(s.Value); err != nil {
		return fmt.Errorf("rl: value optimizer: %w", err)
	}
	return nil
}

// UpdateStats reports what one PPO update did.
type UpdateStats struct {
	Steps       int     // transitions in the batch
	MeanReward  float64 // mean terminal reward across trajectories
	RewardStd   float64 // standard deviation of terminal rewards
	ApproxKL    float64 // KL estimate at the last policy pass
	PolicyIters int     // passes actually run (early stop may cut them)
	PolicyLoss  float64 // clipped-surrogate loss (entropy bonus included) at the last pass
	ValueLoss   float64 // critic MSE after the update
	Entropy     float64 // mean policy entropy over the batch
}

// flatSample is one transition with its computed return and advantage.
type flatSample struct {
	obs  []float64
	act  int
	logp float64
	ret  float64
	adv  float64
}

// Update runs one PPO update over the batch and returns statistics.
func (p *PPO) Update(batch []Trajectory) (UpdateStats, error) {
	var flat []flatSample
	var stats UpdateStats
	for _, tr := range batch {
		stats.MeanReward += tr.Reward
		for _, s := range tr.Steps {
			if len(s.Obs) != p.agent.Policy.InputSize() {
				return stats, fmt.Errorf("rl: observation size %d, want %d", len(s.Obs), p.agent.Policy.InputSize())
			}
			// Undiscounted sparse terminal reward: every step's return is the
			// trajectory's final reward.
			flat = append(flat, flatSample{obs: s.Obs, act: s.Action, logp: s.LogP, ret: tr.Reward})
		}
	}
	if len(batch) > 0 {
		stats.MeanReward /= float64(len(batch))
		var rv float64
		for _, tr := range batch {
			d := tr.Reward - stats.MeanReward
			rv += d * d
		}
		stats.RewardStd = math.Sqrt(rv / float64(len(batch)))
	}
	if len(flat) == 0 {
		return stats, nil
	}
	stats.Steps = len(flat)

	// Advantages: return minus critic baseline (unless ablated), normalized
	// across the batch.
	var mean, m2 float64
	for i := range flat {
		flat[i].adv = flat[i].ret
		if !p.cfg.NoCritic {
			flat[i].adv -= p.agent.StateValue(flat[i].obs)
		}
		d := flat[i].adv - mean
		mean += d / float64(i+1)
		m2 += d * (flat[i].adv - mean)
	}
	std := math.Sqrt(m2/float64(len(flat))) + 1e-8
	for i := range flat {
		flat[i].adv = (flat[i].adv - mean) / std
	}

	// The two passes touch disjoint state — Policy, polG and polOpt versus
	// Value, valG and valOpt — and only read flat, whose advantages already
	// came from the pre-update critic. So the value pass can run beside the
	// policy pass and every bit comes out as in the serial order.
	valueLoss := make(chan float64, 1)
	if p.concurrent {
		go func() { valueLoss <- p.updateValue(flat) }()
	}
	stats.PolicyIters, stats.ApproxKL, stats.Entropy, stats.PolicyLoss = p.updatePolicy(flat)
	switch {
	case p.concurrent:
		stats.ValueLoss = <-valueLoss
	case !p.cfg.NoCritic:
		stats.ValueLoss = p.updateValue(flat)
	}
	return stats, nil
}

// updatePolicy runs clipped-surrogate passes with entropy bonus and KL early
// stopping. Returns passes run, final approximate KL, mean entropy, and the
// mean loss (clipped surrogate minus entropy bonus) of the last pass.
func (p *PPO) updatePolicy(flat []flatSample) (iters int, kl, entropy, loss float64) {
	nA := p.agent.Policy.OutputSize()
	dLogits := make([]float64, nA)
	probs := make([]float64, nA)
	var cache nn.Cache

	for iter := 0; iter < p.cfg.PolicyIters; iter++ {
		p.polG.Zero()
		var klSum, entSum, lossSum float64
		for i := range flat {
			s := &flat[i]
			logits := p.agent.Policy.Forward(s.obs, &cache)
			nn.Softmax(logits, probs)
			logpNew := math.Log(math.Max(probs[s.act], 1e-12))
			ratio := math.Exp(logpNew - s.logp)
			klSum += s.logp - logpNew
			clipped := math.Max(math.Min(ratio, 1+p.cfg.ClipRatio), 1-p.cfg.ClipRatio)
			lossSum += -math.Min(ratio*s.adv, clipped*s.adv)

			// Clipped surrogate: gradient flows only when unclipped.
			coef := 0.0
			if s.adv >= 0 && ratio < 1+p.cfg.ClipRatio || s.adv < 0 && ratio > 1-p.cfg.ClipRatio {
				coef = -ratio * s.adv // d(-surrogate)/d(logpNew)
			}

			var h float64
			for _, q := range probs {
				if q > 0 {
					h -= q * math.Log(q)
				}
			}
			entSum += h

			for k := 0; k < nA; k++ {
				ind := 0.0
				if k == s.act {
					ind = 1
				}
				// d logpNew / d logits_k = ind - p_k
				dLogits[k] = coef * (ind - probs[k])
				// entropy bonus: loss -= c*H, dH/dl_k = -p_k(log p_k + H)
				if probs[k] > 0 {
					dLogits[k] += p.cfg.EntropyCoef * probs[k] * (math.Log(probs[k]) + h)
				}
			}
			p.agent.Policy.Backward(&cache, dLogits, p.polG)
		}
		kl = klSum / float64(len(flat))
		entropy = entSum / float64(len(flat))
		loss = (lossSum - p.cfg.EntropyCoef*entSum) / float64(len(flat))
		iters = iter + 1
		if kl > 1.5*p.cfg.TargetKL && iter > 0 {
			break // stop before applying a step that drifts too far
		}
		p.polG.Scale(1 / float64(len(flat)))
		p.polG.ClipGlobalNorm(p.cfg.MaxGradNorm)
		p.polOpt.Step(p.agent.Policy, p.polG)
	}
	return iters, kl, entropy, loss
}

// updateValue fits the critic to the returns with MSE; returns final loss.
func (p *PPO) updateValue(flat []flatSample) float64 {
	var cache nn.Cache
	dOut := []float64{0}
	var loss float64
	for iter := 0; iter < p.cfg.ValueIters; iter++ {
		p.valG.Zero()
		loss = 0
		for i := range flat {
			s := &flat[i]
			v := p.agent.Value.Forward(s.obs, &cache)[0]
			d := v - s.ret
			loss += 0.5 * d * d
			dOut[0] = d
			p.agent.Value.Backward(&cache, dOut, p.valG)
		}
		loss /= float64(len(flat))
		p.valG.Scale(1 / float64(len(flat)))
		p.valG.ClipGlobalNorm(p.cfg.MaxGradNorm)
		p.valOpt.Step(p.agent.Value, p.valG)
	}
	return loss
}
