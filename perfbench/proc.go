package main

import (
	"fmt"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"lme/internal/core"
	"lme/internal/metrics"
	"lme/internal/wire"
)

// procSample is a point reading of the process counters.
type procSample struct {
	at    time.Time
	cpu   time.Duration // user + system CPU time
	alloc uint64        // cumulative bytes allocated
	gcs   uint32
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
	}
}

// procDelta is what the process did between two readings.
type procDelta struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func (p procSample) since(p0 procSample) procDelta {
	return procDelta{wall: p.at.Sub(p0.at), cpu: p.cpu - p0.cpu, alloc: p.alloc - p0.alloc, gcs: p.gcs - p0.gcs}
}

// layers reports the process metrics, with allocation per operation.
func (d procDelta) layers(ops float64) map[string]float64 {
	return map[string]float64{
		"process.cpu_busy_frac":  ratio(d.cpu.Seconds(), d.wall.Seconds()*float64(runtime.GOMAXPROCS(0))),
		"process.alloc_b_per_op": ratio(float64(d.alloc), ops),
		"process.gc_cycles":      float64(d.gcs),
	}
}

// liveHeap forces a full collection and returns the bytes still live.
// Two cycles empty the sync.Pool victim caches too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapPerNode is the heap a system held per node: the live heap while it
// ran minus the live heap once it was garbage.
func heapPerNode(alive, gone uint64, n int) float64 {
	return (float64(alive) - float64(gone)) / float64(n)
}

// sketchTiming reads p50 and p99 off a latency sketch snapshot.
func sketchTiming(s metrics.SketchSnapshot) timing {
	if s.Count == 0 {
		return timing{}
	}
	sk := metrics.FromSnapshot(s)
	return timing{Count: int(s.Count), P50: sk.QuantileFloat(0.50), P99: sk.QuantileFloat(0.99)}
}

// wireCost is the codec cost over a sample of a workload's messages.
type wireCost struct {
	encodeNs, decodeNs, bytesPerMsg float64
}

// wireSink keeps the timed codec calls from being optimised away.
var wireSink int

// measureWire encodes and decodes every sampled message, checks that each
// decodes to a value equal to the original, and then times repeated
// passes of wire.AppendMessage and wire.DecodeMessage over the sample.
func measureWire(sample []core.Message) (wireCost, error) {
	var w wireCost
	if len(sample) == 0 {
		return w, nil
	}
	encoded := make([][]byte, len(sample))
	total := 0
	for i, m := range sample {
		b, err := wire.AppendMessage(nil, m)
		if err != nil {
			return w, err
		}
		got, err := wire.DecodeMessage(b)
		if err != nil {
			return w, fmt.Errorf("decode %T: %w", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			return w, fmt.Errorf("wire round trip changed a %T: %+v became %+v", m, m, got)
		}
		encoded[i] = b
		total += len(b)
	}
	w.bytesPerMsg = float64(total) / float64(len(sample))

	const minTime = 50 * time.Millisecond
	buf := make([]byte, 0, 256)
	start, msgs := time.Now(), 0
	for time.Since(start) < minTime {
		for _, m := range sample {
			buf, _ = wire.AppendMessage(buf[:0], m)
			wireSink += len(buf)
		}
		msgs += len(sample)
	}
	w.encodeNs = float64(time.Since(start)) / float64(msgs)

	start, msgs = time.Now(), 0
	for time.Since(start) < minTime {
		for _, b := range encoded {
			m, _ := wire.DecodeMessage(b)
			if m != nil {
				wireSink++
			}
		}
		msgs += len(encoded)
	}
	w.decodeNs = float64(time.Since(start)) / float64(msgs)
	return w, nil
}
