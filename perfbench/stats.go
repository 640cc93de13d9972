package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean is the geometric mean of positive samples.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// overhead is the tracing overhead 1 − plain/traced from per-op ratios
// traced/plain, averaged geometrically so that every op counts once, as in
// op_ms_geomean; a plain sum would be decided by Z_stack's few long runs.
func overhead(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	return 1 - 1/geomean(ratios)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// share is part/whole, 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// rtSample reads the Go runtime's cumulative allocation, GC-cycle and
// CPU-class counters.
type rtSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return rtSample{
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCycles:     samples[2].Value.Uint64(),
		gcCPU:        samples[3].Value.Float64(),
		totalCPU:     samples[4].Value.Float64(),
	}
}

// sub is the difference b − a of two samples (a taken first).
func (b rtSample) sub(a rtSample) rtSample {
	return rtSample{
		allocBytes:   b.allocBytes - a.allocBytes,
		allocObjects: b.allocObjects - a.allocObjects,
		gcCycles:     b.gcCycles - a.gcCycles,
		gcCPU:        b.gcCPU - a.gcCPU,
		totalCPU:     b.totalCPU - a.totalCPU,
	}
}

func (b rtSample) add(a rtSample) rtSample {
	return rtSample{
		allocBytes:   b.allocBytes + a.allocBytes,
		allocObjects: b.allocObjects + a.allocObjects,
		gcCycles:     b.gcCycles + a.gcCycles,
		gcCPU:        b.gcCPU + a.gcCPU,
		totalCPU:     b.totalCPU + a.totalCPU,
	}
}

// peakRSSMiB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
