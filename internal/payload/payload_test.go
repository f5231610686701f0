package payload

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestVirtualPayload(t *testing.T) {
	v := NewVirtual(1 << 20)
	if v.Size() != 1<<20 {
		t.Errorf("size = %d, want 1MiB", v.Size())
	}
	if v.Bytes() != nil {
		t.Error("virtual payload must carry no bytes")
	}
	if NewVirtual(1<<20).Checksum() != v.Checksum() {
		t.Error("equal-size virtual payloads must have equal checksums")
	}
	if NewVirtual(1<<21).Checksum() == v.Checksum() {
		t.Error("different-size virtual payloads should differ in checksum")
	}
}

func TestNewVirtualRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewVirtual(-1) did not panic")
		}
	}()
	NewVirtual(-1)
}

func TestRealPayloadRoundTrip(t *testing.T) {
	data := []byte("seismic wavefield snapshot 042")
	r := NewReal(data)
	if r.Size() != int64(len(data)) {
		t.Errorf("size = %d, want %d", r.Size(), len(data))
	}
	if !bytes.Equal(r.Bytes(), data) {
		t.Error("bytes mismatch")
	}
	if err := Verify(r, data); err != nil {
		t.Errorf("Verify of identical data failed: %v", err)
	}
	corrupted := append([]byte{}, data...)
	corrupted[0] ^= 0xFF
	if err := Verify(r, corrupted); err == nil {
		t.Error("Verify of corrupted data should fail")
	}
}

func TestChecksumDetectsAnySingleBitFlipProperty(t *testing.T) {
	f := func(data []byte, pos uint16, bit uint8) bool {
		if len(data) == 0 {
			return true
		}
		r := NewReal(data)
		flipped := append([]byte{}, data...)
		flipped[int(pos)%len(flipped)] ^= 1 << (bit % 8)
		return Verify(r, flipped) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestChecksumKnownAnswer pins the kernel to CRC-32 (IEEE) through its
// standard check value, so a silent change of algorithm fails here.
func TestChecksumKnownAnswer(t *testing.T) {
	if got := NewReal([]byte("123456789")).Checksum(); got != 0xCBF43926 {
		t.Errorf("checksum of %q = %#x, want 0xcbf43926", "123456789", got)
	}
	if got := Sum(nil); got != 0 {
		t.Errorf("checksum of empty payload = %#x, want 0", got)
	}
}

func megabytePayload() []byte {
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i*131 + i>>9)
	}
	return data
}

func TestVerifyRejectsDamagedMegabyte(t *testing.T) {
	data := megabytePayload()
	want := NewReal(data)
	if err := Verify(want, data); err != nil {
		t.Fatalf("Verify of intact payload: %v", err)
	}
	for _, pos := range []int{0, len(data) / 2, len(data) - 1} {
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 0x01
		if err := Verify(want, flipped); err == nil {
			t.Errorf("Verify accepted a bit flip at byte %d", pos)
		}
	}
	if err := Verify(want, data[:len(data)-1]); err == nil {
		t.Error("Verify accepted a payload truncated by one byte")
	}
}

var sumSink uint64

// BenchmarkChecksum1MiB measures the checksum kernel on the payload size
// the real-byte workloads use; one iteration is one NewReal (the
// checkpoint side), and Verify costs the same pass again on restore.
func BenchmarkChecksum1MiB(b *testing.B) {
	data := megabytePayload()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sumSink = NewReal(data).Checksum()
	}
}
