package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// peakRSSMiB reads VmHWM, the resident-set high-water mark, of process
// pid (0 = this process); 0 when /proc does not say.
func peakRSSMiB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns freed heap to the kernel and restarts VmHWM of
// this process from its current resident set (clear_refs value 5, Linux
// 4.0 and later), so that a later peakRSSMiB(0) covers only what ran in
// between. It reports whether the kernel accepted the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// dieWithParent has the kernel kill the child should this process die
// without running its teardown (SIGKILL by a timeout), so no radserve
// is ever left holding a port.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
