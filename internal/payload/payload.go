// Package payload models checkpoint contents. Benchmarks use virtual
// payloads (size only — the simulated fabric accounts for the time that
// moving the bytes would take), while examples and integration tests use
// real byte payloads whose integrity is verified on restore.
//
// The checksum is CRC-32 (IEEE), the same kernel ckptstore writes into
// its files, computed by crc32.ChecksumIEEE: it is hardware-accelerated
// (PCLMULQDQ on amd64), so checksumming a payload runs at memory speed
// rather than at one dependent multiply per byte. CRC-32 detects every
// single-bit error and every burst error up to 32 bits long. The price is
// width: Checksum returns a uint64 holding a zero-extended 32-bit value,
// so two different payloads collide with probability 2⁻³² rather than
// 2⁻⁶⁴. That is ample for detecting corruption; the checksum is not a
// content address and nothing keys on it.
package payload

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Payload is the content of one checkpoint. Payloads are immutable once
// written (paper §1, "Limitations of the Proposed Approach").
type Payload interface {
	// Size returns the payload size in bytes.
	Size() int64
	// Checksum returns a content checksum; virtual payloads return a
	// deterministic function of their size.
	Checksum() uint64
	// Bytes returns the underlying data, or nil for virtual payloads.
	Bytes() []byte
}

// Sum returns the checksum of data: its CRC-32 (IEEE), zero-extended.
func Sum(data []byte) uint64 { return uint64(crc32.ChecksumIEEE(data)) }

// Virtual is a size-only payload used in large-scale benchmarks where
// materializing tens of gigabytes is neither possible nor useful.
type Virtual struct{ N int64 }

// NewVirtual returns a virtual payload of n bytes (n must be >= 0).
func NewVirtual(n int64) Virtual {
	if n < 0 {
		panic(fmt.Sprintf("payload: negative size %d", n))
	}
	return Virtual{N: n}
}

// Size implements Payload.
func (v Virtual) Size() int64 { return v.N }

// Checksum implements Payload with a deterministic size-derived value:
// the checksum of the size's 8 little-endian bytes.
func (v Virtual) Checksum() uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v.N))
	return Sum(buf[:])
}

// Bytes implements Payload; virtual payloads carry no data.
func (v Virtual) Bytes() []byte { return nil }

// Real is a byte-backed payload.
type Real struct {
	data []byte
	sum  uint64
}

// NewReal wraps data (not copied) and precomputes its checksum.
func NewReal(data []byte) *Real {
	return &Real{data: data, sum: Sum(data)}
}

// Size implements Payload.
func (r *Real) Size() int64 { return int64(len(r.data)) }

// Checksum implements Payload.
func (r *Real) Checksum() uint64 { return r.sum }

// Bytes implements Payload. Callers must not mutate the returned slice.
func (r *Real) Bytes() []byte { return r.data }

// Verify recomputes the checksum of got and compares it with want's,
// returning a descriptive error on mismatch. It is used by restores of
// real payloads.
func Verify(want Payload, got []byte) error {
	if sum := Sum(got); sum != want.Checksum() {
		return fmt.Errorf("payload: checksum mismatch: got %#x, want %#x", sum, want.Checksum())
	}
	return nil
}
