package telemetry

import (
	"math"
	"runtime/metrics"
)

// MemStats is a compact allocation/GC snapshot taken from the
// runtime/metrics interface, for the mixd /metrics heap and GC gauges.
// All fields are cumulative since process start except HeapBytes, which
// is instantaneous.
type MemStats struct {
	AllocBytes   uint64  // total bytes allocated on the heap
	AllocObjects uint64  // total heap objects allocated
	HeapBytes    uint64  // bytes of live heap objects right now
	GCCycles     uint64  // completed GC cycles
	GCPauseNs    float64 // estimated total stop-the-world GC pause
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

// ReadMemStats samples the runtime. The pause total is estimated from
// the pause-duration histogram using bucket midpoints, which is exact
// enough to compare two configurations of the same workload.
func ReadMemStats() MemStats {
	samples := make([]metrics.Sample, len(memSamples))
	copy(samples, memSamples)
	metrics.Read(samples)
	var m MemStats
	if samples[0].Value.Kind() == metrics.KindUint64 {
		m.AllocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		m.AllocObjects = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		m.HeapBytes = samples[2].Value.Uint64()
	}
	if samples[3].Value.Kind() == metrics.KindUint64 {
		m.GCCycles = samples[3].Value.Uint64()
	}
	if samples[4].Value.Kind() == metrics.KindFloat64Histogram {
		m.GCPauseNs = histogramTotalNs(samples[4].Value.Float64Histogram())
	}
	return m
}

func histogramTotalNs(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	var total float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		// Clamp the open-ended edge buckets to their finite bound.
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		total += float64(n) * mid * 1e9
	}
	return total
}
