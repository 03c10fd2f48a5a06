package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/sched"
	"schedinspector/internal/serve"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// Seeded inputs. The program only ever sees what these generators produce:
// an SDSC-SP2-like trace drawn from the run's seed, /v1/inspect bodies
// harvested from it, and the committed fixture model.

const (
	traceJobs   = 60000 // jobs in every workload's trace
	harvestSize = 8192  // /v1/inspect bodies harvested per run

	fixturePath = "perfbench/fixture/model.gob"
	digestPath  = "perfbench/fixture/model.gob.sha256"

	// The fixture is paper-scale training (Batch 100, SeqLen 128, SJF,
	// bsld) for a few epochs from fixed seeds: trained enough that its
	// rejection rate and decision count look like a deployed model's,
	// unlike a random initialization.
	fixtureJobs      = 20000
	fixtureTraceSeed = 1
	fixtureSeed      = 7
	fixtureEpochs    = 12
)

func makeTrace(seed int64) *workload.Trace { return workload.SDSCSP2Like(traceJobs, seed) }

func sjf() sched.Policy {
	p, err := sched.ByName("SJF")
	if err != nil {
		panic(err) // SJF is built in; failing here is a bug
	}
	return p
}

// harvest is the request set of one run: every decision state of an SJF
// schedule over the trace, as a /v1/inspect request and its JSON body.
type harvest struct {
	reqs   []serve.InspectRequest
	bodies [][]byte
}

// harvestRequests steps sim.Env under SJF over the whole trace, accepting
// every decision, and turns every stride-th decision state into one
// InspectRequest. Sampling the whole trace, rather than its first
// decisions, keeps the queue lengths (and so the body sizes) of one seed
// close to another's: queues swing with the trace's bursts.
func harvestRequests(tr *workload.Trace, size int) (*harvest, error) {
	env := sim.NewEnv()
	st, done, err := env.Reset(tr.Jobs, sim.Config{MaxProcs: tr.MaxProcs, Policy: sjf()})
	if err != nil {
		return nil, fmt.Errorf("harvest: %w", err)
	}
	// Every job is inspected once when nothing is rejected.
	stride := max(tr.Len()/size, 1)
	hv := &harvest{}
	for i := 0; !done && len(hv.reqs) < size; i++ {
		if i%stride == 0 {
			req := requestFrom(st)
			body, err := json.Marshal(&req)
			if err != nil {
				return nil, fmt.Errorf("harvest: %w", err)
			}
			hv.reqs = append(hv.reqs, req)
			hv.bodies = append(hv.bodies, body)
		}
		st, done = env.Step(false)
	}
	if len(hv.reqs) == 0 {
		return nil, fmt.Errorf("harvest: trace produced no decisions")
	}
	return hv, nil
}

// requestFrom converts a decision state into the request a scheduler
// would send for it.
func requestFrom(st *sim.State) serve.InspectRequest {
	var req serve.InspectRequest
	req.Job.Wait, req.Job.Est, req.Job.Procs = st.JobWait, st.Job.Est, st.Job.Procs
	req.Rejections = st.Rejections
	req.FreeProcs, req.TotalProcs = st.FreeProcs, st.TotalProcs
	req.BackfillEnabled, req.BackfillCount = st.BackfillEnabled, st.BackfillCount
	req.Queue = make([]serve.QueueItem, len(st.Queue))
	for i, q := range st.Queue {
		req.Queue[i] = serve.QueueItem{Wait: q.Wait, Est: q.Est, Procs: q.Procs}
	}
	return req
}

// stateFrom builds the simulator state /v1/inspect builds from a request:
// the queue copy plus sim.NewState, as in the handler today.
func stateFrom(req *serve.InspectRequest) *sim.State {
	queue := make([]sim.QueueItem, 0, len(req.Queue))
	for _, q := range req.Queue {
		queue = append(queue, sim.QueueItem{Wait: q.Wait, Est: q.Est, Procs: q.Procs})
	}
	return sim.NewState(workload.Job{Est: req.Job.Est, Procs: req.Job.Procs},
		req.Job.Wait, req.Rejections, req.FreeProcs, req.TotalProcs,
		req.BackfillEnabled, req.BackfillCount, queue)
}

// stats returns the mean queue length and mean body size of the harvest.
func (hv *harvest) stats() (queue, bytes float64) {
	for i := range hv.reqs {
		queue += float64(len(hv.reqs[i].Queue))
		bytes += float64(len(hv.bodies[i]))
	}
	n := float64(len(hv.reqs))
	return queue / n, bytes / n
}

// loadFixture reads the committed model, refusing it unless its SHA-256
// matches the committed digest, so a stale or corrupt fixture fails loudly.
func loadFixture(rng *rand.Rand) (*core.Inspector, error) {
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	want, err := os.ReadFile(digestPath)
	if err != nil {
		return nil, fmt.Errorf("fixture digest: %w", err)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if f := strings.Fields(string(want)); len(f) == 0 || f[0] != got {
		return nil, fmt.Errorf("fixture %s has digest %s, %s says otherwise; regenerate with: bash perfbench/run.sh --regen-fixture",
			fixturePath, got, digestPath)
	}
	insp, err := core.LoadInspector(bytes.NewReader(data), rng)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	return insp, nil
}

// regenFixture retrains the fixture from its fixed seeds and rewrites the
// model and its digest. Training is bit-identical for any worker count, so
// the output is the same on every machine that runs the same code.
func regenFixture() error {
	tr := workload.SDSCSP2Like(fixtureJobs, fixtureTraceSeed)
	t, err := core.NewTrainer(core.TrainConfig{Trace: tr, Policy: sjf(), Metric: metrics.BSLD, Seed: fixtureSeed})
	if err != nil {
		return err
	}
	if _, err := t.Train(fixtureEpochs, func(s core.EpochStats) {
		fmt.Printf("epoch %d steps=%d reject_ratio=%.3f\n", s.Epoch, s.Steps, s.RejectionRatio)
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := t.Inspector().Save(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(fixturePath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	line := hex.EncodeToString(sum[:]) + "  model.gob\n"
	if err := os.WriteFile(digestPath, []byte(line), 0o644); err != nil {
		return err
	}
	fmt.Print(line)
	return nil
}
