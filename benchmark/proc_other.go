//go:build !linux

package main

import "os/exec"

func peakRSSMiB(int) float64 { return 0 }

func resetPeakRSS() bool { return false }

func dieWithParent(*exec.Cmd) {}
