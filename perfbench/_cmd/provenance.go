package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// provenance records the conditions a result was measured under, printed
// beside every result: the inputs (seed), the host parallelism, the
// toolchain, the code, and the filesystem the serve-mix store lives on.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// StoreFS is the filesystem type of the serve-mix store directory
	// (empty for workloads without a store).
	StoreFS string `json:"store_fs,omitempty"`
}

func newProvenance(workload string, seed uint64, seconds int, trace bool) provenance {
	return provenance{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit returns the VCS revision stamped into the binary, or a note
// saying why there is none (a checkout without .git carries no stamp).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (built outside a git work tree)"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// fsMagic names the filesystems a store is likely to sit on.
var fsMagic = map[int64]string{
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2fc12fc1: "zfs",
}

// filesystemOf names the filesystem holding dir.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// freshHeap collects the heap, returns the freed memory to the OS and
// restarts peak tracking, so the next span's peak resident set does not
// depend on where the collector and the background scavenger, both paced
// by wall time, stood when it began.
func freshHeap() error {
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// resetPeakRSS restarts the kernel's peak-resident-set (VmHWM) tracking
// for this process, so the next peakRSSMB reads the peak since now.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 2 && fields[1] == "kB" {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
