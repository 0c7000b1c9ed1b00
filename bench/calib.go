package main

import (
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The time metrics are normalised by a calibration: a fixed piece of
// work that leans on the same parts of the machine as the workloads —
// allocation and garbage collection, pointer chasing, string-keyed
// maps, sorting and number formatting — timed between batches on the
// closed loop's workers. On a shared host the guest's speed drifts with
// its neighbours' load, and allocation-heavy Go code feels it most (see
// README.md, Noise). A run's time metrics are divided by how much more
// CPU time than on the reference host the calibration took in that run,
// so they read as on the reference host. The calibration is code of the
// benchmark, not of loopscope: a change to the program moves the
// workloads and leaves the calibration where it was.
const (
	// calibUnits is the calibration's size, in units of calibUnit.
	calibUnits = 240
	// calibRefCPU is the calibration's CPU time on the reference host, a
	// 2-vCPU KVM guest (Intel Xeon @ 2.10 GHz) running it on 2 workers:
	// the median of 416 calibrations spread over 40 runs.
	calibRefCPU = 400 * time.Millisecond
	// calibEvery is how much batch time may pass between calibrations:
	// short batches share one, long ones get one each.
	calibEvery = time.Second
)

// calibNode is one entry of a calibration unit's linked map.
type calibNode struct {
	key  string
	val  uint64
	next *calibNode
}

// calibUnit builds, sorts and walks a string-keyed map of 2048 linked
// nodes; its result depends only on seed.
func calibUnit(seed uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + 1
	next := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	nodes := make([]*calibNode, 0, 2048)
	byKey := make(map[string]*calibNode)
	var buf []byte
	for range 2048 {
		v := next()
		buf = strconv.AppendUint(buf[:0], v%100_000, 10)
		n := &calibNode{key: string(buf), val: v, next: byKey[string(buf)]}
		byKey[n.key] = n
		nodes = append(nodes, n)
	}
	slices.SortFunc(nodes, func(a, b *calibNode) int { return strings.Compare(a.key, b.key) })
	var sum uint64
	for _, n := range nodes {
		for p := n; p != nil; p = p.next {
			sum += p.val
		}
		k, _ := strconv.ParseUint(n.key, 10, 64)
		sum = sum*31 + k
	}
	return sum
}

// calibration is the cost of one calibration.
type calibration struct {
	cpu time.Duration
	sum uint64 // the units' results, so the work cannot be elided
}

// calibrate runs the calibration on workers. Untimed collections before
// and after it keep the batches' garbage out of its cost and its own
// garbage out of the next batch's.
func calibrate(workers int) calibration {
	sums := make([]uint64, calibUnits)
	runtime.GC()
	c0 := cpuTime()
	forEach(calibUnits, workers, func(i int) { sums[i] = calibUnit(uint64(i)) })
	c := calibration{cpu: cpuTime() - c0}
	runtime.GC()
	for _, s := range sums {
		c.sum += s
	}
	return c
}

// slowdown is how much more CPU time than on the reference host the
// calibrations of a run took, at their median; 1 with none.
func slowdown(cs []calibration) float64 {
	if len(cs) == 0 {
		return 1
	}
	cpu := make([]float64, len(cs))
	for i, c := range cs {
		cpu[i] = c.cpu.Seconds()
	}
	return median(cpu) / calibRefCPU.Seconds()
}
