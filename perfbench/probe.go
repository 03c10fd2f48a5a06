package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was written on is shared, and its CPU speed
// swings by half and more over stretches from seconds to minutes: a
// single-threaded spin loop took 0.18 to 0.33 s from one second to the
// next, and whole runs landed in slow stretches. Neither the median nor a
// fast percentile of a run's units repeated from one run to the next.
//
// So a speed meter runs beside the workload. Every probeEvery it runs a
// fixed kernel, independent of the program's code, on a goroutine locked
// to its own OS thread, and times it in that thread's CPU time. Thread CPU
// time leaves out the time the probe waits for a core while the workload
// runs, but it grows when the host runs the core slower or takes it away.
// A unit of work (a one-second serving window, an epoch, an Evaluate
// call) is then scaled to the reference speed: its time by probeRef over
// the median probe during the unit, its rate by the inverse. A change to
// the program moves the scaled numbers as it moves the raw ones, while a
// slow stretch of the host moves a unit and its probes together.

const (
	// probeRef is the probe kernel's CPU time on the reference machine (a
	// 2-vCPU Xeon VM) in its fast stretches. It only sets the scale of the
	// scaled metrics.
	probeRef = 20e-6
	// probeEvery is the probe period. A probe costs 20 to 40 us of CPU, so
	// the meter takes well under 1% of one core.
	probeEvery = 10 * time.Millisecond
	// minSpan is the shortest interval a unit's probes are taken from; a
	// shorter unit uses the probes around its midpoint.
	minSpan = 0.25
)

var probeW = probeMatrix()

var probeText = []byte(`{"job":{"wait":1234.5,"est":3600,"procs":16},"free_procs":32,"queue":[{"wait":12.25,"est":900,"procs":4}]}`)

func probeMatrix() []float64 {
	w := make([]float64, 16*16)
	for i := range w {
		w[i] = math.Sin(float64(i)) / 8
	}
	return w
}

// probeKernel is fixed work that uses the CPU the way the workloads do:
// multiply-adds and tanh over a small cache-resident matrix, as in the MLP
// paths, and byte-wise branching over JSON text, as in the codec.
func probeKernel() float64 {
	var x, y [16]float64
	for i := range x {
		x[i] = float64(i) / 16
	}
	for r := 0; r < 40; r++ {
		for i := range y {
			s := 0.0
			for j, w := range probeW[i*16 : (i+1)*16] {
				s += w * x[j]
			}
			y[i] = math.Tanh(s)
		}
		x = y
	}
	n := 0
	for r := 0; r < 80; r++ {
		for _, b := range probeText {
			if b >= '0' && b <= '9' {
				n = (n*10 + int(b-'0')) & 0xffff
			} else {
				n ^= int(b)
			}
		}
	}
	return x[0] + float64(n)
}

// threadCPU returns the calling thread's CPU time in seconds.
func threadCPU() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}

// probeSample is one probe: when it ran, in seconds since the meter
// started, and the kernel's CPU time in seconds.
type probeSample struct{ at, cpu float64 }

// speedMeter samples the host's speed until stopped.
type speedMeter struct {
	t0      time.Time
	mu      sync.Mutex
	samples []probeSample
	sink    float64
	stopCh  chan struct{}
	done    chan struct{}
}

func startSpeedMeter() *speedMeter {
	m := &speedMeter{t0: time.Now(), stopCh: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *speedMeter) run() {
	defer close(m.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-tick.C:
		}
		c0 := threadCPU()
		v := probeKernel()
		cpu := threadCPU() - c0
		m.mu.Lock()
		m.samples = append(m.samples, probeSample{at: since(m.t0), cpu: cpu})
		m.sink += v
		m.mu.Unlock()
	}
}

// stop ends the meter and waits for its goroutine.
func (m *speedMeter) stop() {
	close(m.stopCh)
	<-m.done
}

// now returns seconds since the meter started, the clock of its samples.
func (m *speedMeter) now() float64 { return since(m.t0) }

// slowdown returns how much slower than the reference the host ran over
// [start, end]: the median probe in that span (at least minSpan wide)
// over probeRef. It returns 1 when no probe fell in the span.
func (m *speedMeter) slowdown(start, end float64) float64 {
	if end-start < minSpan {
		mid := (start + end) / 2
		start, end = mid-minSpan/2, mid+minSpan/2
	}
	m.mu.Lock()
	ss := m.samples
	m.mu.Unlock()
	i := sort.Search(len(ss), func(i int) bool { return ss[i].at >= start })
	var cpus []float64
	for ; i < len(ss) && ss[i].at <= end; i++ {
		cpus = append(cpus, ss[i].cpu)
	}
	if len(cpus) == 0 {
		return 1
	}
	return median(cpus) / probeRef
}
