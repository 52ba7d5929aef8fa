package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// tailPercentiles are the candidates for a workload's tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the value of the highest candidate percentile with
// at least ten samples above its rank; the median if none qualifies.
func tailPercentile(v []float64) float64 {
	n := len(v)
	for _, p := range tailPercentiles {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			return percentile(v, p)
		}
	}
	return percentile(v, 50)
}

// gmean returns the geometric mean of the positive values in v.
func gmean(v []float64) float64 {
	var sum float64
	n := 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 { return statusMB("VmHWM:") }

// statusMB reads a kB field of /proc/self/status, in MB.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// commit returns the revision run.sh found, or "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sum returns the sum of v.
func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
