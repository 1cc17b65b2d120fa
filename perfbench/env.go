package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// envStamp identifies the host and build a result came from, so numbers
// from different machines are never compared by accident.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	AVX2       bool   `json:"avx2"`
	Commit     string `json:"commit"`
}

func readEnv() envStamp {
	e := envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name":
				e.CPU = strings.TrimSpace(val)
			case "flags":
				e.AVX2 = strings.Contains(" "+val+" ", " avx2 ")
			}
			if e.CPU != "unknown" && e.AVX2 {
				break
			}
		}
	}
	// The commit is stamped by the go command when the source is a git
	// checkout; an exported source tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty, _ = strconv.ParseBool(s.Value)
			}
		}
		if rev != "" {
			e.Commit = rev
			if dirty {
				e.Commit += "-dirty"
			}
		}
	}
	return e
}

// peakRSSMB returns the process's resident-set high-water mark in MiB,
// 0 when the kernel does not report it.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the high-water mark at the current RSS, so the
// peak reported afterwards belongs to the timed window alone. Kernels
// without the interface keep the peak since process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort; see above
}
