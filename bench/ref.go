package main

import (
	"slices"
	"time"
)

// The host this benchmark was made on is a 2-vCPU VM on a shared machine,
// and its speed is not steady. The same 20 000-epoch paper run took from
// 0.5 to 0.7 s of CPU time depending on when it ran, on either vCPU, with
// or without garbage collection; eight runs of one paper-50 seed read from
// 1.37 to 2.02 million node-epochs per CPU second; and over a few hours
// paper-50 went from 2.6 to 1.4 million. So a frozen reference kernel —
// code of this file only — runs between the measured stretches, and every
// time-based end-to-end metric is expressed at the reference speed: a
// duration d measured next to a reference run of r reads d·refNominal/r (a
// rate, r/refNominal times more). A change to the repository's code moves
// the metric as much as it moves the raw time; the host's moods mostly do
// not. README.md gives the spreads measured with and without it.

// refNominal is about the reference kernel's median wall time on the host
// the benchmark was made on, so normalized values read close to raw ones
// there.
const refNominal = 2000 * time.Microsecond

// refKernel is the reference work: refOps map updates over refKeys keys,
// one sort of refSortLen numbers, and refSmallSorts sorts of refSmallLen
// numbers each — a mix of cache misses and branchy in-cache work. The
// three together followed the simulators better overall than any one.
// It allocates nothing after newRefKernel.
type refKernel struct {
	m      map[uint64]uint64
	keys   []uint64
	src    []uint64
	buf    []uint64
	result uint64 // keeps the work observable
}

const (
	refKeys       = 1 << 15
	refOps        = 1 << 13
	refSortLen    = 1 << 13
	refSmallSorts = 8
	refSmallLen   = 1 << 10
)

// hostRef is the process's reference kernel, built before any measurement.
var hostRef = newRefKernel()

func newRefKernel() *refKernel {
	k := &refKernel{
		m:    make(map[uint64]uint64, refKeys),
		keys: make([]uint64, refOps),
		src:  make([]uint64, refSortLen),
		buf:  make([]uint64, refSortLen),
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for i := range refKeys {
		k.m[uint64(i)] = next()
	}
	for i := range k.keys {
		k.keys[i] = next() % refKeys
	}
	for i := range k.src {
		k.src[i] = next()
	}
	return k
}

// run does the reference work once and returns its wall time. (Its
// thread's CPU time normalized no better: it steadied some metrics and
// unsettled others.)
func (k *refKernel) run() time.Duration {
	t0 := now()
	s := k.result
	for _, key := range k.keys {
		v := k.m[key] + s
		k.m[key] = v
		s ^= v
	}
	copy(k.buf, k.src)
	slices.Sort(k.buf)
	s += k.buf[len(k.buf)/2]
	for i := range refSmallSorts {
		small := k.buf[:refSmallLen]
		copy(small, k.src[i*refSmallLen:])
		slices.Sort(small)
		s += small[i]
	}
	k.result = s
	return time.Since(t0)
}

// atRef scales a duration measured next to a reference run of r to the
// reference speed.
func atRef(d, r time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refNominal) / float64(r))
}
