package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostRecord describes the machine a result was measured on.
type hostRecord struct {
	CPUs       int    `json:"cpus"`
	CPUModel   string `json:"cpu_model"`
	RAMMB      int64  `json:"ram_mb"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
}

func newHostRecord(seed int64) hostRecord {
	h := hostRecord{
		CPUs:       runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
	h.CPUModel, _ = procField("/proc/cpuinfo", "model name")
	if kb, ok := procKB("/proc/meminfo", "MemTotal"); ok {
		h.RAMMB = kb * 1024 / 1e6
	}
	return h
}

// peakRSSMB is this process's high-water resident set (VmHWM) in MB of 10^6
// bytes; /proc counts in KiB.
func peakRSSMB() (float64, bool) {
	kb, ok := procKB("/proc/self/status", "VmHWM")
	return float64(kb) * 1024 / 1e6, ok
}

// procField returns the value of the first "key: value" line of a /proc file.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// procKB reads a "key: N kB" line of a /proc file.
func procKB(path, key string) (int64, bool) {
	v, ok := procField(path, key)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
	return n, err == nil
}
