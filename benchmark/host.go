package main

import (
	"bufio"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostDelta is what one timed section cost the host.
type hostDelta struct {
	wall       time.Duration
	cpu        time.Duration // user+system CPU of the whole process
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// measure times f. The memory statistics are read outside the timed
// interval (ReadMemStats stops the world).
func measure(f func()) hostDelta {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&m1)
	return hostDelta{
		wall: wall, cpu: cpu,
		mallocs: m1.Mallocs - m0.Mallocs, allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC, gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusKB reads one "<key>: <n> kB" line of /proc/self/status — VmHWM
// is the process's peak resident set, VmRSS the current one. 0 off Linux.
func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			if fs := strings.Fields(rest); len(fs) > 0 {
				v, _ := strconv.ParseFloat(fs[0], 64)
				return v
			}
		}
	}
	return 0
}

// fingerprint identifies the host and build a result was taken on; numbers
// from different fingerprints do not compare.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp.Commit += "+dirty"
				}
			}
		}
	}
	if fp.Commit == "unknown" {
		// go run does not stamp VCS information; ask git, if this is a clone.
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			fp.Commit = strings.TrimSpace(string(out))
		}
	}
	return fp
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nearestRank returns the p-th percentile of an ascending slice: the
// smallest sample with at least p% of the samples at or below it.
func nearestRank[T any](sorted []T, p float64) T {
	i := int(float64(len(sorted))*p/100+0.9999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile as a share of
// the median, quartiles as Python's statistics.quantiles(xs, n=4) places
// them — the measure the regression bounds are read against.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position among the sorted samples
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return ratio(q(3)-q(1), median(s))
}
