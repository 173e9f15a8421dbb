package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU returns the CPU time the calling OS thread has used. The
// forwarder times its batches on this clock, so time the host gives to
// other processes does not count as forwarding time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return time.Duration(time.Now().UnixNano())
	}
	return time.Duration(ts.Nano())
}
