package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// clockTicksPerSecond is USER_HZ, the unit of the utime and stime fields of
// /proc/<pid>/stat. Linux fixes it at 100 for every architecture user space
// can observe, independent of the kernel's internal tick rate.
const clockTicksPerSecond = 100

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample such that at least a fraction q of the samples are at or below it.
// q is clamped to [0, 1]; an empty sample yields NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the nearest-rank median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// parseProcStat extracts utime and stime, in clock ticks, from one line of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces and parentheses, so fields are counted from the last
// closing parenthesis: utime and stime are fields 14 and 15 of the line.
func parseProcStat(line string) (utime, stime uint64, err error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, 0, errors.New("proc stat: no command name")
	}
	// After ") " come fields 3 (state) onwards.
	fields := strings.Fields(line[end+1:])
	const utimeField, stimeField = 14 - 3, 15 - 3
	if len(fields) <= stimeField {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command name, need %d", len(fields), stimeField+1)
	}
	if utime, err = strconv.ParseUint(fields[utimeField], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	if stime, err = strconv.ParseUint(fields[stimeField], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime, stime, nil
}

// cpuSeconds returns the user plus system CPU time a process has used, read
// from /proc/<pid>/stat ("self" for the benchmark's own process).
func cpuSeconds(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	utime, stime, err := parseProcStat(string(raw))
	if err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// peakRSSMiB returns a process's peak resident set size (VmHWM) in MiB.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return kib / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// resetPeakRSS makes the kernel restart the calling process's VmHWM from
// its current resident set size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuClock is a snapshot of the machine-wide CPU time counters of
// /proc/stat, in clock ticks summed over all CPUs.
type cpuClock struct {
	steal, total uint64
}

// parseCPUClock reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq and steal (guest time is already part of
// user time).
func parseCPUClock(line string) (cpuClock, error) {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuClock{}, fmt.Errorf("proc stat: not an aggregate cpu line: %q", line)
	}
	var c cpuClock
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuClock{}, fmt.Errorf("proc stat: cpu field %d: %w", i+1, err)
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c, nil
}

// readCPUClock snapshots the machine's CPU time counters.
func readCPUClock() (cpuClock, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuClock{}, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuClock{}, err
	}
	return parseCPUClock(line)
}

// stealShare returns the share of the machine's CPU time a hypervisor took
// from this virtual machine between two snapshots: time the guest was
// ready to run but not running, which slows every wall-clock measurement
// without any change to the program.
func stealShare(from, to cpuClock) float64 {
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// environment describes the machine and build a result was measured on.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// captureEnvironment records the runtime, CPU and source revision.
func captureEnvironment(commit string) environment {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				model = strings.TrimSpace(value)
				break
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   model,
		Commit:     commit,
	}
}
