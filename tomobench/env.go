package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// environment is the hardware and software a run measured.
type environment struct {
	NumCPU, GOMAXPROCS int
	CPUModel           string
	GoVersion          string
	Kernel             string
	WALFS              string // filesystem type of the WAL directory
}

func recordEnvironment(walDir string) environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		WALFS:      fsType(walDir),
	}
}

func (e environment) String() string {
	return fmt.Sprintf("env nproc=%d GOMAXPROCS=%d cpu=%q go=%s kernel=%s wal_fs=%s",
		e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.GoVersion, e.Kernel, e.WALFS)
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Filesystem magic numbers from statfs(2).
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	for _, line := range strings.Split(readFile("/proc/self/status"), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS collects garbage, returns freed memory to the OS and
// resets VmHWM to the current resident set, so that a later peakRSSMB
// covers only what follows.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset VmHWM: %w", err)
	}
	return nil
}

// hostSteal returns the CPU time the hypervisor gave to other guests
// (steal) and all CPU time, in ticks summed over CPUs, from /proc/stat.
// On a shared host steal slows every timing of a run alike.
func hostSteal() (steal, total uint64) {
	line, _, _ := strings.Cut(readFile("/proc/stat"), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the share of CPU time stolen between two hostSteal readings.
func stealPct(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}

// cpuTime is the process's user+system CPU time in milliseconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}
