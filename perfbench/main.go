// Command perfbench is the repository benchmark. From one process it drives
// the program's public Go API along the three paths users feel — the
// /v1/inspect verdict over a real loopback socket, the paper's PPO training
// epoch, test-time evaluation — plus serving while the online loop retrains
// in the same process. It checks the outputs and prints every metric by name
// with its unit. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end_to_end set of BENCHMARK.json; with --trace 1 they are its per_layer
// set, taken from a traced run (see README.md for what each one measures).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A run repeats its set-up at least minSetups times and until minSetupS
// seconds have gone into it (at most maxSetups times); setup_s is the
// median, so a cheap set-up is still measured over many repetitions.
const (
	minSetups = 3
	maxSetups = 50
	minSetupS = 1.0
)

// options are the command-line arguments shared by every workload, and
// the speed meter that runs beside it.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string // where span files go
	meter    *speedMeter
}

// units holds the latency and rate of each unit of a measured phase, raw
// and scaled to the reference speed (see probe.go). A unit is a one-second
// serving window (latency: its p50 round trip), an epoch or an Evaluate
// call (latency: its own time).
type units struct {
	lat, rates, slow []float64
}

// add records one unit that ran over [start, end] on the meter's clock,
// completed work items and had latency lat seconds.
func (u *units) add(m *speedMeter, start, end float64, work int, lat float64) {
	u.lat = append(u.lat, lat)
	u.rates = append(u.rates, float64(work)/(end-start))
	u.slow = append(u.slow, m.slowdown(start, end))
}

// scaled returns the units' latencies and rates at the reference speed.
func (u *units) scaled() (lat, rates []float64) {
	lat, rates = make([]float64, len(u.lat)), make([]float64, len(u.lat))
	for i, s := range u.slow {
		lat[i], rates[i] = u.lat[i]/s, u.rates[i]*s
	}
	return lat, rates
}

// overheadPct is how much slower, in percent, the traced units ran than
// the untraced ones, comparing median scaled rates.
func overheadPct(plain, traced units) float64 {
	_, p := plain.scaled()
	_, t := traced.scaled()
	return 100 * (median(p)/median(t) - 1)
}

// report sets the gated metrics, the medians of the scaled units.
func (u *units) report(r *report) {
	lat, rates := u.scaled()
	r.set("throughput_per_s", median(rates), "1/s")
	r.set("latency_ms", median(lat)*1e3, "ms")
	slow := append([]float64(nil), u.slow...)
	sort.Float64s(slow)
	r.note("%d units; host slowdown against the reference speed: median %.3f, range %.3f to %.3f",
		len(slow), median(slow), slow[0], slow[len(slow)-1])
}

func main() {
	var (
		o      options
		secs   int
		trace  int
		regen  bool
		outDir = os.Getenv("PERFBENCH_OUT")
	)
	flag.StringVar(&o.workload, "workload", "", "workload: serve, train, eval or serve_online")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&secs, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.BoolVar(&regen, "regen-fixture", false, "retrain the committed fixture model and rewrite its digest, then exit")
	flag.Parse()

	if regen {
		if err := regenFixture(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if outDir == "" {
		outDir = ".bench_build"
	}
	o.seconds, o.traced, o.outDir = float64(secs), trace == 1, outDir

	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newReport()
	printProvenance(o)
	o.meter = startSpeedMeter()
	switch o.workload {
	case "serve":
		err = runServe(o, r, false)
	case "serve_online":
		err = runServe(o, r, true)
	case "train":
		err = runTrain(o, r)
	case "eval":
		err = runEval(o, r)
	default:
		err = fmt.Errorf("unknown workload %q (want serve, train, eval or serve_online)", o.workload)
	}
	o.meter.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.set("max_rss_mb", float64(ru.Maxrss)/1024, "MB") // Maxrss is KiB on Linux
	}
	if err := r.emit(man, o.traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// printProvenance records how the numbers were made.
func printProvenance(o options) {
	fmt.Printf("# workload=%s seed=%d seconds=%g traced=%v\n", o.workload, o.seed, o.seconds, o.traced)
	fmt.Printf("# go=%s GOMAXPROCS=%d nproc=%d clients=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), clientCount())
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest is the part of BENCHMARK.json the benchmark reads: the declared
// metric names and units are the single source of what the final line holds.
type manifest struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("parse %s: %w", path, err)
	}
	return m, nil
}

// report collects measured metrics and the operation accounting.
type report struct {
	mu        sync.Mutex
	values    map[string]float64
	units     map[string]string
	attempted atomic.Int64
	failed    atomic.Int64
}

func newReport() *report {
	return &report{values: make(map[string]float64), units: make(map[string]string)}
}

// set records one metric and prints it as a human-readable line.
func (r *report) set(name string, v float64, unit string) {
	r.mu.Lock()
	r.values[name] = v
	r.units[name] = unit
	r.mu.Unlock()
	fmt.Printf("%-30s %16.6g %s\n", name, v, unit)
}

// note prints a line of context that is not a metric.
func (r *report) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// ok counts one operation that succeeded.
func (r *report) ok() { r.attempted.Add(1) }

// fail counts one failed operation and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.attempted.Add(1)
	r.failed.Add(1)
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// check counts one checked operation, failing it unless cond holds.
func (r *report) check(cond bool, format string, args ...any) {
	if cond {
		r.ok()
		return
	}
	r.fail(format, args...)
}

// emit prints the final JSON line. End-to-end metrics must all have been
// measured; a per-layer metric of a layer this workload never reaches
// reports 0.
func (r *report) emit(m manifest, traced bool) error {
	att, failed := r.attempted.Load(), r.failed.Load()
	if att == 0 {
		return fmt.Errorf("no operations attempted")
	}
	fmt.Printf("%-30s %16.6g %s\n", "error_ratio", float64(failed)/float64(att), "ratio")
	specs := m.EndToEnd
	if traced {
		specs = m.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := r.values[s.Name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", s.Name, v)
		}
		if ok && r.units[s.Name] != s.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", s.Name, r.units[s.Name], s.Unit)
		}
		out[s.Name] = value{Value: v, Unit: s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, att, failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupMedian repeats build as the set-up constants say, discarding every
// result but the last, and returns the last result with the median build
// time in seconds, scaled to the reference speed.
func setupMedian[T any](m *speedMeter, build func() (T, error), discard func(T)) (T, float64, error) {
	var (
		v          T
		raw, times []float64
	)
	for i := 0; i < maxSetups && (i < minSetups || sum(raw) < minSetupS); i++ {
		start := m.now()
		next, err := build()
		if err != nil {
			return v, 0, err
		}
		end := m.now()
		raw = append(raw, end-start)
		times = append(times, (end-start)/m.slowdown(start, end))
		if i > 0 {
			discard(v)
			// Collect the discarded set-up now, so the peak RSS does not
			// depend on when the collector would have got to it.
			runtime.GC()
		}
		v = next
	}
	return v, median(times), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
