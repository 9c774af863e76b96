//go:build !linux

package main

import "time"

// preciseSleep falls back to time.Sleep where nanosleep is not in the
// syscall package; see sleep_linux.go.
func preciseSleep(d time.Duration) { time.Sleep(d) }
