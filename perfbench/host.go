package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/parallel"
	"repro/internal/stream"
)

// hostRecord identifies the machine a result came from. Results from two
// different records are not comparable; a triad that drifts between runs on
// one record flags interference from other tenants.
type hostRecord struct {
	CPU          string  `json:"cpu"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	L2Bytes      int64   `json:"l2_bytes_per_cpu"`
	L2SumBytes   int64   `json:"l2_bytes_summed"`
	LLCBytes     int64   `json:"llc_bytes_reported"`
	GoVersion    string  `json:"go"`
	TriadBytes   int64   `json:"triad_array_bytes"`
	TriadP1GBs   float64 `json:"triad_gbs_p1"`
	TriadPNGBs   float64 `json:"triad_gbs_pN"`
	TriadThreads int     `json:"triad_threads_pN"`
}

// minTriadArray keeps the STREAM arrays well out of cache even where sysfs
// reports no L2 at all.
const minTriadArray = 16 << 20

// probeHost reads the CPU model and cache sizes and measures the STREAM
// triad at one thread and at threads, with each array at least four times
// the summed L2.
func probeHost(threads int) hostRecord {
	h := hostRecord{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	h.L2Bytes, h.LLCBytes = cacheSizes()
	h.L2SumBytes = h.L2Bytes * int64(h.NumCPU)
	arr := 4 * h.L2SumBytes
	if arr < minTriadArray {
		arr = minTriadArray
	}
	h.TriadBytes = arr
	h.TriadP1GBs = triad(1, int(arr/8))
	h.TriadPNGBs = triad(threads, int(arr/8))
	h.TriadThreads = threads
	return h
}

func triad(threads, n int) float64 {
	pool := parallel.NewPool(threads)
	defer pool.Close()
	return stream.GB(stream.Run(pool, n, 4).Triad)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cacheSizes reports cpu0's L2 and its last-level cache as sysfs lists
// them; zero where the kernel exposes nothing.
func cacheSizes() (l2, llc int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	top := 0
	for _, d := range dirs {
		level, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil || readTrim(filepath.Join(d, "type")) == "Instruction" {
			continue
		}
		size := parseSize(readTrim(filepath.Join(d, "size")))
		if level == 2 {
			l2 = size
		}
		if level >= top {
			top, llc = level, size
		}
	}
	return l2, llc
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize reads sysfs cache sizes such as "2048K" or "300M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}
