package main

import "syscall"

// procAttr makes the kernel kill the daemon if the benchmark dies without
// stopping it, so no daemon outlives a killed run.
func procAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
