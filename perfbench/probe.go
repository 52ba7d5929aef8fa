package main

import (
	"math/rand"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark reports CPU time rather than wall time, and scales it by a
// speed probe run before every operation. Wall time on a shared host
// measures the neighbours: ten runs of the same code spread by up to half
// their median. Process CPU time leaves out the time the host gives to other
// guests, but still moves by 10-30% from one ten-second stretch to the next
// as the host's caches and cores are shared. The probe is fixed work that
// calls none of the repository's code; scaling each pass's CPU times by the
// pass's median probe time cancels most of that drift.

// calRefMS is the median thread CPU time of probeWork between operations
// on the reference machine, so that scaled times read as milliseconds on
// that machine.
const calRefMS = 1.5

type probeNode struct {
	val  float64
	next *probeNode
}

// probeChase is a random cyclic permutation of 1<<19 slots (4 MB), larger
// than the caches of one core, for the probe to chase through.
var probeChase = func() []int64 {
	const n = 1 << 19
	perm := rand.New(rand.NewSource(1)).Perm(n)
	next := make([]int64, n)
	for i := range perm {
		next[perm[i]] = int64(perm[(i+1)%n])
	}
	return next
}()

// probeData is the probe's string-keyed map and its two matrices, built
// once so that the probe allocates nothing: an allocating probe would be
// charged collection work the measured operations caused.
var probeData = func() (p struct {
	keys    []string
	m       map[string]*probeNode
	a, b, c []float64
}) {
	var prev *probeNode
	p.m = map[string]*probeNode{}
	for i := 0; i < 3000; i++ {
		k := "v" + strconv.Itoa(i)
		prev = &probeNode{val: float64(i), next: prev}
		p.keys = append(p.keys, k)
		p.m[k] = prev
	}
	const n = probeN
	p.a, p.b, p.c = make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range p.a {
		p.a[i] = float64(i%7) * 0.5
		p.b[i] = float64(i%5) + 1
	}
	return p
}()

const probeN = 48

// probeSink keeps the probe's results from being optimized away.
var probeSink float64

// probeWork is the probe: it hashes strings and follows the pointers they
// map to, chases a chain through memory larger than a core's caches, and
// multiplies two small dense matrices, the kinds of work the workloads do.
func probeWork() {
	s := 0.0
	for _, k := range probeData.keys {
		nd := probeData.m[k]
		for j := 0; j < 4 && nd != nil; j++ {
			s += nd.val
			nd = nd.next
		}
	}
	at := int64(0)
	for i := 0; i < 8000; i++ {
		at = probeChase[at]
	}
	const n = probeN
	a, b, c := probeData.a, probeData.b, probeData.c
	clear(c)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	probeSink += s + float64(at) + c[n*n-1]
}

// probeMS runs the probe on a locked OS thread and returns its thread CPU
// time in milliseconds, so that garbage collection the operations left
// running on other threads is not counted.
func probeMS() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPUTime()
	probeWork()
	return ms(threadCPUTime() - t0)
}

// threadCPUTime returns the CPU time of the calling OS thread.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTime returns the CPU time all threads of the process have used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
