//go:build unix

package ckptstore

import (
	"bytes"
	"path/filepath"
	"syscall"
	"testing"
)

// withFileSizeLimit lowers the process's soft RLIMIT_FSIZE to limit bytes
// for the duration of fn, so every write past it fails with EFBIG (the Go
// runtime ignores SIGXFSZ). The limit is process-wide: callers must not
// run in parallel with other tests.
func withFileSizeLimit(t *testing.T, limit uint64, fn func()) {
	t.Helper()
	var saved syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &saved); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	lowered := saved
	lowered.Cur = limit
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &saved); err != nil {
			t.Fatalf("restoring RLIMIT_FSIZE: %v", err)
		}
	}()
	fn()
}

// TestFailedWriteRemovesTempFile: a write that fails part-way (here, past
// the file size limit) must leave no temp file behind, for Put and for
// Restage alike, and must leave the store usable once the disk recovers.
func TestFailedWriteRemovesTempFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	big := bytes.Repeat([]byte{0x5A}, 64<<10)
	withFileSizeLimit(t, 4<<10, func() {
		for attempt := 0; attempt < 3; attempt++ {
			if err := s.Put(1, big); err == nil {
				t.Fatal("Put past the file size limit succeeded")
			}
		}
		if err := s.Restage(2, big); err == nil {
			t.Fatal("Restage past the file size limit succeeded")
		}
	})
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tempSuffix)); len(tmps) != 0 {
		t.Fatalf("failed writes left temp files: %v", tmps)
	}
	if s.Has(1) || s.Has(2) {
		t.Fatal("failed writes left index entries")
	}
	if err := s.Put(1, big); err != nil {
		t.Fatalf("Put after the limit was lifted: %v", err)
	}
	if got, err := s.Get(1); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("Get after recovery: %d bytes, %v", len(got), err)
	}
}
