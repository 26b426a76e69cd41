//go:build !linux

package main

import "syscall"

// procAttr has no parent-death signal to set outside Linux.
func procAttr() *syscall.SysProcAttr { return nil }
