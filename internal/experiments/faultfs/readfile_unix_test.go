//go:build unix

package faultfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestDiskReadFileMatchesOS: Disk.ReadFile returns os.ReadFile's bytes
// for files of every size around its buffer boundaries, and its errors
// for a missing file, a directory and a file without read permission:
// *os.PathError values with the same Op and Err, so errors.Is still
// finds os.ErrNotExist.
func TestDiskReadFileMatchesOS(t *testing.T) {
	dir := t.TempDir()
	same := func(name string) {
		t.Helper()
		got, gotErr := Disk{}.ReadFile(name)
		want, wantErr := os.ReadFile(name)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: Disk.ReadFile error %v, os.ReadFile error %v", name, gotErr, wantErr)
		}
		if wantErr != nil {
			var g, w *os.PathError
			if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) || g.Op != w.Op || g.Path != w.Path || g.Err != w.Err {
				t.Fatalf("%s: Disk.ReadFile error %#v, os.ReadFile error %#v", name, gotErr, wantErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Disk.ReadFile read %d bytes, os.ReadFile %d", name, len(got), len(want))
		}
	}
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 1 << 20} {
		name := filepath.Join(dir, "rec")
		data := bytes.Repeat([]byte{0x5a, 0xa5, 0x00}, n)[:n]
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		same(name)
	}

	missing := filepath.Join(dir, "missing.run")
	if _, err := (Disk{}).ReadFile(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: want os.ErrNotExist, got %v", err)
	}
	same(missing)
	same(dir) // a directory opens but does not read

	locked := filepath.Join(dir, "locked.run")
	if err := os.WriteFile(locked, []byte("record"), 0o000); err != nil {
		t.Fatal(err)
	}
	same(locked)
	if _, err := os.ReadFile(locked); err == nil {
		t.Log("this process reads a mode-000 file (it bypasses permission checks); the unreadable case ran as a readable one")
	} else if _, err := (Disk{}).ReadFile(locked); !errors.Is(err, syscall.EACCES) {
		t.Fatalf("mode-000 file: want EACCES, got %v", err)
	}
}

// TestReadFullLoopsOnShortReads: a read that returns less than asked is
// followed by another for the rest; a read of 0 bytes ends the file
// early, and an error is returned as it is.
func TestReadFullLoopsOnShortReads(t *testing.T) {
	data := []byte("a record read three bytes at a time")
	src := bytes.NewReader(data)
	calls := 0
	got, err := readFull(len(data), func(p []byte) (int, error) {
		calls++
		return src.Read(p[:min(len(p), 3)])
	})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("readFull = %q, %v; want %q", got, err, data)
	}
	if want := (len(data) + 2) / 3; calls != want {
		t.Fatalf("readFull made %d reads of at most 3 bytes, want %d", calls, want)
	}

	// Cut short after its size was taken: the bytes that are there.
	short := bytes.NewReader(data[:10])
	got, err = readFull(len(data), func(p []byte) (int, error) {
		n, err := short.Read(p)
		if err == io.EOF {
			err = nil // a system call reports end of file as 0 bytes read
		}
		return n, err
	})
	if err != nil || !bytes.Equal(got, data[:10]) {
		t.Fatalf("cut-short file: readFull = %q, %v; want %q", got, err, data[:10])
	}

	_, err = readFull(len(data), func(p []byte) (int, error) { return 0, syscall.EIO })
	if err != syscall.EIO {
		t.Fatalf("failing read: want EIO, got %v", err)
	}
}
