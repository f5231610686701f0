package ckptstore

import (
	"testing"
)

func benchPayload() []byte {
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i*13 + i>>10)
	}
	return data
}

// BenchmarkStorePut1MiB measures one durable checkpoint write: header,
// payload and trailer to a temp file, then the atomic rename. Each
// checkpoint is deleted after its write so the directory stays small.
func BenchmarkStorePut1MiB(b *testing.B) {
	s, _, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	data := benchPayload()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(int64(i), data); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Delete(int64(i)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkStoreOpen measures reopening a store of 16 one-MiB
// checkpoints, which validates every file by streaming it.
func BenchmarkStoreOpen(b *testing.B) {
	const files = 16
	dir := b.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	data := benchPayload()
	for id := int64(0); id < files; id++ {
		if err := s.Put(id, data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(files * int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, corrupt, err := Open(dir)
		if err != nil || len(corrupt) != 0 || len(s.IDs()) != files {
			b.Fatalf("reopen: %v, corrupt %v", err, corrupt)
		}
	}
}
