package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestInjectorFiresOnNthMatch(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(Disk{}, &Fault{Op: OpWrite, Path: "victim", N: 2, Err: syscall.ENOSPC})

	f, err := in.CreateTemp(dir, "victim*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("first")); err != nil {
		t.Fatalf("first write should pass: %v", err)
	}
	if _, err := f.Write([]byte("second")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("second write: want ENOSPC, got %v", err)
	}
	if _, err := f.Write([]byte("third")); err != nil {
		t.Fatalf("faults fire once; third write should pass: %v", err)
	}
	if in.Fired() != 1 {
		t.Fatalf("want 1 fired fault, got %d", in.Fired())
	}
}

func TestInjectorShortWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(Disk{}, &Fault{Op: OpWrite, AfterBytes: 3, Err: syscall.ENOSPC})

	f, err := in.CreateTemp(dir, "x*")
	if err != nil {
		t.Fatal(err)
	}
	n, werr := f.Write([]byte("0123456789"))
	f.Close()
	if n != 3 || !errors.Is(werr, syscall.ENOSPC) {
		t.Fatalf("want (3, ENOSPC), got (%d, %v)", n, werr)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "012" {
		t.Fatalf("want the 3 pre-fault bytes on disk, got %q", data)
	}
}

func TestInjectorKillDeadensEverything(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(Disk{}, &Fault{Op: OpWrite, Path: ".tmp", Kill: true})

	f, err := in.CreateTemp(dir, "k.tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("partial")); !errors.Is(err, ErrKilled) {
		t.Fatalf("want ErrKilled, got %v", err)
	}
	f.Close()
	if !in.Dead() {
		t.Fatal("injector not dead after Kill fault")
	}
	// A dead process cannot clean up after itself.
	if err := in.Remove(f.Name()); !errors.Is(err, ErrKilled) {
		t.Fatalf("remove after kill: want ErrKilled, got %v", err)
	}
	if _, err := in.Stat(f.Name()); !errors.Is(err, ErrKilled) {
		t.Fatalf("stat after kill: want ErrKilled, got %v", err)
	}
	if _, err := os.Stat(f.Name()); err != nil {
		t.Fatalf("the orphaned temp file must survive on the real disk: %v", err)
	}
}

func TestInjectorFlipBit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec")
	if err := os.WriteFile(path, []byte{0x00, 0x00}, 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(Disk{}, &Fault{Op: OpRead, FlipBit: 9}) // bit 1 of byte 1
	data, err := in.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0x00 || data[1] != 0x02 {
		t.Fatalf("want bit 9 flipped, got % x", data)
	}
	// The fault fired once; a second read is clean.
	data, err = in.ReadFile(path)
	if err != nil || data[1] != 0x00 {
		t.Fatalf("second read should be clean, got (% x, %v)", data, err)
	}
}

func TestInjectorOpenFileClassification(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(Disk{}, &Fault{Op: OpCreate, Err: syscall.EROFS})
	if _, err := in.OpenFile(filepath.Join(dir, "lock"), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("O_CREATE open: want EROFS, got %v", err)
	}
	// Reads are a different class and pass.
	if err := os.WriteFile(filepath.Join(dir, "r"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := in.OpenFile(filepath.Join(dir, "r"), os.O_RDONLY, 0)
	if err != nil {
		t.Fatalf("read open should pass: %v", err)
	}
	f.Close()
}
