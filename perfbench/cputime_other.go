//go:build !linux

package main

import "time"

// threadCPU falls back to the wall clock where no per-thread CPU clock is
// wired up.
func threadCPU() time.Duration { return time.Duration(time.Now().UnixNano()) }
