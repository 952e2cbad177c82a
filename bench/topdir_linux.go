//go:build linux && (amd64 || arm64)

package main

import (
	"os"
	"syscall"
	"unsafe"
)

// FS_IOC_GETFLAGS, FS_IOC_SETFLAGS and FS_TOPDIR_FL from linux/fs.h.
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopdirFl    = 0x00020000
)

// spreadSubdirs marks dir as the top of a directory hierarchy (the
// attribute `chattr +T` sets) so that ext4 places each new
// subdirectory in a block group with free space of its own rather than
// in dir's group. Without it every cache directory of every run lands
// in the one group earlier runs filled with small files and freed
// again, and on such a group creating a cache entry costs 10-15 times
// as much kernel time. File systems without the attribute refuse or
// ignore it, and directories are placed as usual.
func spreadSubdirs(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return
	}
	flags |= fsTopdirFl
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}
