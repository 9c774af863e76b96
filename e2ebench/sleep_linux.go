//go:build linux

package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling goroutine's thread for d. The open-loop
// generator cannot use time.Sleep: Go's timers wake through the network
// poller, whose wait on Linux is in whole milliseconds, so each request
// went out up to a millisecond late (a median 0.3-0.5 ms on the 2-vCPU
// VM) and requests due within one millisecond went out together.
// nanosleep wakes within about 0.1 ms there.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// The runtime's preemption signals interrupt the call; the kernel
	// leaves the time still to sleep in ts.
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
