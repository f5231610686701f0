package core

import (
	"bytes"
	"errors"
	"testing"

	"score/internal/ckptstore"
	"score/internal/payload"
)

// TestRecoveredPayloadChecksum: a checkpoint recovered from the durable
// store must carry the same checksum as the live payload it was written
// from, so the live and recovered restore paths verify with one kernel.
// The checksum is computed once, at load, and served from then on.
func TestRecoveredPayloadChecksum(t *testing.T) {
	st, _, err := ckptstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	original := bytes.Repeat([]byte("recovered wavefield "), 4096)
	if err := st.Put(3, original); err != nil {
		t.Fatal(err)
	}
	rec := &storePayload{ssd: st, id: 3, size: int64(len(original))}
	want := payload.NewReal(original).Checksum()
	for call := 0; call < 2; call++ {
		if got := rec.Checksum(); got != want {
			t.Fatalf("call %d: recovered checksum %#x, live checksum %#x", call, got, want)
		}
	}
	if err := payload.Verify(rec, rec.Bytes()); err != nil {
		t.Fatalf("Verify of a recovered payload: %v", err)
	}

	missing := &storePayload{ssd: st, id: 4, size: 1}
	if got := missing.Checksum(); got != 0 {
		t.Errorf("checksum of an unreadable payload = %#x, want 0", got)
	}
	if err := missing.LoadErr(); !errors.Is(err, ckptstore.ErrNotFound) {
		t.Errorf("LoadErr = %v, want ErrNotFound", err)
	}
}
