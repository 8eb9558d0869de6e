package main

import (
	"math"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on shared hosts whose speed per instruction drifts by
// 2x and more over minutes while the core clock holds (neighbours compete
// for what the core shares with them), which no run length averages away. Every timed run therefore times a
// fixed piece of work that shares no code with the program — a dependent
// walk over an L2-sized table interleaved with integer mixing — before and
// after its set-up and after every phase of every cycle, and multiplies its
// timings by (calibRefUs / the run's median chunk time)^calibExp. A timing
// metric then reads as the time the same work would take on a host where
// one chunk takes calibRefUs; a change to the program moves it exactly as
// it moves the raw time. The raw times and the chunk time are printed on
// the run's comment lines.

const (
	calibRingLen = 1 << 16 // uint32 entries: 256 KB, resident in a core's L2
	calibSteps   = 100_000 // dependent loads per chunk
	calibChunks  = 24      // chunks per worker per calibration
	// calibRefUs is the chunk time of the reference host, an Intel Xeon
	// (family 6 model 207) vCPU at 2.1 GHz nominal, measured while its
	// neighbours were busy.
	calibRefUs = 630.0
	// calibExp is how much more the program's times move than the chunk
	// time when the host changes speed: across five shifts between the
	// host's slow and fast periods, the log of sweep and request times
	// moved 1.9 to 2.3 times as far as the log of the chunk time.
	calibExp = 2
)

// calibRing is a fixed shuffle of 0..calibRingLen-1; the walk mixes each
// loaded value with the integer chain to pick the next slot, so every load
// depends on the one before it and the slots it visits look random.
var calibRing = func() []uint32 {
	r := make([]uint32, calibRingLen)
	for i := range r {
		r[i] = uint32(i)
	}
	x := uint64(0x2545F4914F6CDD1D)
	for i := len(r) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		r[i], r[j] = r[j], r[i]
	}
	return r
}()

// calibSink keeps the chunks' results live.
var calibSink uint32

func calibChunk(seed uint64) uint32 {
	x := seed | 1
	p := uint32(0)
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p = calibRing[(p^uint32(x))&(calibRingLen-1)]
	}
	return p
}

// calibrate runs calibChunks chunks on each of `nproc` workers at once —
// the benchmark's own concurrency — and returns the median chunk time in
// microseconds. The median of short chunks follows the core's speed and
// ignores the few chunks a preemption lands in.
func calibrate() float64 {
	var mu sync.Mutex
	var times []float64
	var sink uint32
	forEach(nproc, func(worker int) {
		local := make([]float64, 0, calibChunks)
		var s uint32
		for i := 0; i < calibChunks; i++ {
			t := time.Now()
			s ^= calibChunk(uint64(worker*calibChunks + i))
			local = append(local, float64(time.Since(t))/float64(time.Microsecond))
		}
		mu.Lock()
		times = append(times, local...)
		sink ^= s
		mu.Unlock()
	})
	calibSink ^= sink
	return median(times)
}

// hostClock collects a run's calibrations.
type hostClock struct {
	seen []float64 // chunk times, us
}

func (h *hostClock) sample() { h.seen = append(h.seen, calibrate()) }

// factor is the scale that turns the run's times into times on the
// reference host: calibRefUs over the run's median chunk time, raised to
// calibExp.
func (h *hostClock) factor() float64 { return math.Pow(calibRefUs/median(h.seen), calibExp) }
