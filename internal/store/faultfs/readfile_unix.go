//go:build unix

package faultfs

import (
	"os"
	"syscall"
)

// readFile is os.ReadFile in four system calls: open, fstat, reads up
// to the fstat size (one, unless a read comes back short) and close.
// os.ReadFile makes ten on Linux. os.Open also tries to register the
// descriptor with the runtime's network poller, which fails for a
// regular file: four fcntl calls switch non-blocking mode on and off
// around one epoll_ctl. And a zero-length read finds end of file.
// Reading only the fstat size is exact for the store's records:
// they are published by rename, so the file an open descriptor names
// never changes. Anything but a regular file (a directory, a pipe, a
// /proc file whose size reads 0) goes to os.ReadFile. Errors are
// *os.PathError, as os.ReadFile's are.
func readFile(name string) ([]byte, error) {
	fd, err := syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return nil, &os.PathError{Op: "stat", Path: name, Err: err}
	}
	if st.Mode&syscall.S_IFMT != syscall.S_IFREG {
		return os.ReadFile(name)
	}
	data, err := readFull(int(st.Size), func(p []byte) (int, error) {
		n, err := syscall.Read(fd, p)
		for err == syscall.EINTR {
			n, err = syscall.Read(fd, p)
		}
		return n, err
	})
	if err != nil {
		return nil, &os.PathError{Op: "read", Path: name, Err: err}
	}
	return data, nil
}

// readFull reads a file of size bytes through read, looping on short
// reads. A read of 0 bytes ends it early: the file was cut short after
// its size was taken.
func readFull(size int, read func([]byte) (int, error)) ([]byte, error) {
	data := make([]byte, size)
	n := 0
	for n < size {
		m, err := read(data[n:])
		if err != nil {
			return nil, err
		}
		if m == 0 {
			break
		}
		n += m
	}
	return data[:n], nil
}
