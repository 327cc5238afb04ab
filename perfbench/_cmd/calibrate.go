package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// Host-speed calibration. The benchmark's host shares its CPUs with other
// tenants, and its speed switches between regimes that last from seconds
// to hours: the same simulation pass ran 1.75x longer in the slow one.
// There is no steal time, so process CPU time drifts with it. A fixed
// probe, timed before and after every second or so of measured work,
// drifts much the same way, and every host timing the benchmark reports is
// scaled by calRef / probe time. A timing therefore reads as the time the
// span would take on a host where the probe takes calRef.
//
// The probe is an integer loop followed by a pointer chase through 4 MB.
// On the 2-vCPU host the benchmark was tuned on, the loop alone slowed
// 2.2x in the slow regime and the chase alone 1.5x; their sum slowed
// 1.79x, close to the simulator's 1.75x, and a sim-wide64 point scaled by
// it read the same in both regimes within 2%. The probe is the benchmark's own
// code, so a change to the simulator cannot move it.

// calIters and chaseSteps size the probe; calRef is its time on the
// tuning host in the fast regime.
const (
	calIters   = 20_000_000
	chaseSteps = 1_000_000
	calRef     = 50 * time.Millisecond
)

// calEvery is how much measured time passes between two calibrations.
const calEvery = time.Second

// chain is a random cyclic permutation over 4 MB: chain[i] is the index
// to visit after i.
var chain = func() []uint32 {
	perm := rand.New(rand.NewPCG(1, 2)).Perm(1 << 20)
	c := make([]uint32, len(perm))
	for i, p := range perm {
		c[p] = uint32(perm[(i+1)%len(perm)])
	}
	return c
}()

// calSink keeps the probe's results alive.
var calSink int

//go:noinline
func probe() int {
	n := 0
	for i := 0; i < calIters; i++ {
		n += i * i % 7
	}
	j := uint32(0)
	for i := 0; i < chaseSteps; i++ {
		j = chain[j]
	}
	return n + int(j)
}

// calibrate runs the probe on width goroutines at once, so a workload that
// keeps width CPUs busy is calibrated on as many, and returns the wall
// time until the last one finishes.
func calibrate(width int) time.Duration {
	sums := make([]int, width)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = probe()
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range sums {
		calSink += s
	}
	return d
}

// hostFactor is the scale for a span timed between two calibrations:
// below 1 on a host slower than the tuning host.
func hostFactor(before, after time.Duration) float64 {
	return float64(calRef) / (float64(before+after) / 2)
}
