//go:build !linux

package main

import (
	"os/exec"
	"time"
)

func kernelSleep(d time.Duration) { time.Sleep(d) }

// runPinned runs cmd unpinned: only Linux pins set-up processes.
func runPinned(cmd *exec.Cmd, _ int) error { return cmd.Run() }
