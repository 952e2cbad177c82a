//go:build !(linux && (amd64 || arm64))

package main

// spreadSubdirs is a no-op where the ext4 TOPDIR attribute cannot be
// set; see topdir_linux.go.
func spreadSubdirs(string) {}
