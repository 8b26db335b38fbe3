package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-quantile (0 < p <= 1) of xs by the
// nearest-rank rule: the smallest sample with at least p of the samples
// at or below it. With fewer than 1/(1-p) samples it is the maximum.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// peakRSSMiB reads the process's resident-set high-water mark.
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
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}

// nominalHz is the clock rate the reported CPU times are scaled to.
const nominalHz = 3e9

// The clock loop is a chain of dependent multiplies and adds. Each
// iteration waits for the last: a 3-cycle multiply and a 1-cycle add.
const (
	clockLoopIters  = 20_000_000
	clockLoopCycles = 4 * clockLoopIters
)

// clockSink keeps the clock loop from being optimized away.
var clockSink uint64

// clockHz measures the clock rate of the core this goroutine runs on
// from the thread CPU time of the clock loop, whose length in cycles is
// fixed. Thread CPU time leaves out steal and the process's other
// threads.
func clockHz() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPUTime()
	x := uint64(1)
	for i := 0; i < clockLoopIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	clockSink = x
	return clockLoopCycles / (threadCPUTime() - start).Seconds()
}

// heapAllocBytes is the cumulative heap allocation of the process. It
// reads runtime/metrics, which does not stop the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// fsType names the filesystem holding dir, for the run's environment
// record.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuTime is the CPU time, user and system, the process has used.
func cpuTime() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// threadCPUTime is the CPU time the calling thread has used.
func threadCPUTime() time.Duration { return rusage(rusageThread) }

// rusageThread is Linux's RUSAGE_THREAD, which package syscall lacks.
const rusageThread = 1

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
