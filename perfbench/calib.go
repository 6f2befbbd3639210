package main

// The calibration kernel. The benchmark's host is shared, and its speed
// drifts by tens of percent over minutes (neighbours' load on SMT siblings
// and caches, clock frequency), which moves every timing at once. The
// kernel is a fixed integer workload, independent of the program, timed
// beside every timed pass or phase; simulated throughput is reported per
// reference second, the CPU time in which the kernel runs refItersPerS
// iterations, so a drift that slows both cancels out while a change to the
// program still moves the figure. The raw per-CPU-second rate and the
// kernel's speed are reported per layer beside it.

import (
	"runtime"
	"sync"
	"syscall"
)

const (
	calibIters   = 5_000_000 // kernel iterations per worker per round
	refItersPerS = 1e8       // kernel iterations in one reference second
	rusageThread = 1         // RUSAGE_THREAD
)

// calibTable is the kernel's 256 KiB lookup table: larger than L1, within
// L2, like the simulator's cache-model state.
var calibTable = func() []uint64 {
	t := make([]uint64, 1<<15)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		x = xorshift(x)
		t[i] = x
	}
	return t
}()

// calibSink keeps the kernel's result live.
var calibSink []uint64

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// kernel runs n iterations of dependent table lookups and data-dependent
// branches.
func kernel(seed uint64, n int) uint64 {
	x, acc := seed, uint64(0)
	for range n {
		x = xorshift(x)
		v := calibTable[x&(1<<15-1)]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v >> 3
		}
	}
	return acc
}

// calibrate runs one round of the kernel on workers goroutines at once and
// returns its iterations per CPU second. The batch passes keep every CPU
// busy, so they calibrate on GOMAXPROCS workers; driserve under the serve
// load is mostly one busy thread, so serve calibrates on one. Each
// goroutine holds its OS thread and is timed by that thread's CPU time, so
// neither waiting for a CPU nor other threads' work counts.
func calibrate(workers int) float64 {
	cpu := make([]float64, workers)
	sink := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPUSeconds()
			sink[w] = kernel(uint64(w)+1, calibIters)
			cpu[w] = threadCPUSeconds() - t0
		}()
	}
	wg.Wait()
	calibSink = sink
	total := 0.0
	for _, c := range cpu {
		total += c
	}
	return float64(workers*calibIters) / total
}

// threadCPUSeconds is the calling thread's user+system CPU time.
func threadCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// refSeconds converts CPU seconds measured while the kernel ran at
// itersPerS into reference seconds.
func refSeconds(cpuS, itersPerS float64) float64 { return cpuS * itersPerS / refItersPerS }
