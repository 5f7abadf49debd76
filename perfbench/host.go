package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/partition"
)

// hostFacts is printed with every result so numbers from different machines
// are never compared unknowingly. With more ranks than cores the benchmark
// reports counts, not wall-clock scaling; it claims no memory bandwidth.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"`
	// WorkingSetBytes is the computed size of the workload's partitioned
	// graph arrays (one process's copy), to set against LLCBytes.
	WorkingSetBytes int64 `json:"working_set_bytes"`
}

func readHostFacts() hostFacts {
	return hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes returns the size of cpu0's highest-level cache from sysfs, or 0
// when the kernel does not expose it.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best, bestLevel int64
	for _, d := range dirs {
		level := readInt(filepath.Join(d, "level"))
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil || level < bestLevel {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			best, bestLevel = v*mult, level
		}
	}
	return best
}

func readInt(path string) int64 {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	return v
}

// cpuSeconds is the CPU time all of the process's threads have used. Unlike
// wall time it does not grow while other tenants hold the host's cores.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// setupTimer measures repeated set-ups. setup_s is the median set-up's CPU
// time; the median wall time is printed next to it.
type setupTimer struct {
	wall, cpu []float64
	t0        time.Time
	c0        float64
}

func (s *setupTimer) start() {
	runtime.GC() // a set-up must not pay for collecting its predecessor
	s.t0, s.c0 = time.Now(), cpuSeconds()
}

func (s *setupTimer) stop() {
	s.cpu = append(s.cpu, cpuSeconds()-s.c0)
	s.wall = append(s.wall, time.Since(s.t0).Seconds())
}

func (s *setupTimer) report(out *outcome) {
	out.e2e["setup_s"] = median(s.cpu)
	out.note("setup_wall_s", median(s.wall), "s", len(s.wall))
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// partitionBytes computes the bytes held by a partition's arrays: every
// rank's six component adjacencies plus the degree array. It is a computed
// size, not a measured footprint.
func partitionBytes(p *partition.Partitioned) int64 {
	b := int64(len(p.Degrees)) * 8
	for _, rg := range p.Ranks {
		for _, c := range []*partition.SparseCSR{&rg.EHPush, &rg.EHPull, &rg.EToL} {
			b += int64(len(c.IDs))*4 + int64(len(c.Ptr))*8 + int64(len(c.Adj))*4
		}
		b += int64(len(rg.HToL.IDs))*4 + int64(len(rg.HToL.Ptr))*8 + int64(len(rg.HToL.Adj))*8
		b += int64(len(rg.LToE.Ptr))*8 + int64(len(rg.LToE.Adj))*4
		b += int64(len(rg.LToH.Ptr))*8 + int64(len(rg.LToH.Adj))*4
		b += int64(len(rg.L2L.Ptr))*8 + int64(len(rg.L2L.Adj))*8
	}
	return b
}
