package ckptstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// handBuilt assembles a checkpoint file field by field from the layout in
// the package doc, independently of encode.
func handBuilt(id int64, payload []byte) []byte {
	var b bytes.Buffer
	b.WriteString("SCOR")
	binary.Write(&b, binary.LittleEndian, uint16(1)) // version
	binary.Write(&b, binary.LittleEndian, uint16(0)) // flags
	binary.Write(&b, binary.LittleEndian, id)
	binary.Write(&b, binary.LittleEndian, uint32(len(payload)))
	binary.Write(&b, binary.LittleEndian, crc32.ChecksumIEEE(b.Bytes()))
	b.Write(payload)
	binary.Write(&b, binary.LittleEndian, crc32.ChecksumIEEE(payload))
	return b.Bytes()
}

// TestFormatStability pins the on-disk format: a file built by hand from
// the documented layout (and, for two small cases, the exact bytes older
// builds wrote) must be accepted by Open and Get, and Put of the same id
// and payload must write a byte-identical file. Files from older builds
// therefore still recover.
func TestFormatStability(t *testing.T) {
	mustHex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = byte(i*7 + i>>11)
	}
	cases := []struct {
		name    string
		id      int64
		payload []byte
		file    []byte
	}{
		{"known-answer", 7, []byte("wavefield"),
			mustHex("53434f520100000007000000000000000900000027383dee776176656669656c642ad3dc24")},
		{"empty-negative-id", -3, nil,
			mustHex("53434f5201000000fdffffffffffffff00000000bb19611500000000")},
		{"multi-chunk", 1 << 40, big, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := handBuilt(tc.id, tc.payload)
			if tc.file != nil && !bytes.Equal(file, tc.file) {
				t.Fatalf("hand-built file disagrees with the known answer:\n got %x\nwant %x", file, tc.file)
			}
			oldDir := t.TempDir()
			name := strconv.FormatInt(tc.id, 10) + fileSuffix
			if err := os.WriteFile(filepath.Join(oldDir, name), file, 0o644); err != nil {
				t.Fatal(err)
			}
			old, corrupt := openT(t, oldDir)
			if len(corrupt) != 0 {
				t.Fatalf("Open rejected a well-formed file: %v", corrupt)
			}
			if n, err := old.Size(tc.id); err != nil || n != int64(len(tc.payload)) {
				t.Fatalf("Size = %d, %v; want %d", n, err, len(tc.payload))
			}
			got, err := old.Get(tc.id)
			if err != nil || !bytes.Equal(got, tc.payload) {
				t.Fatalf("Get of a well-formed file: %d bytes, %v", len(got), err)
			}
			if q, err := old.Scrub(); err != nil || len(q) != 0 {
				t.Fatalf("Scrub of a well-formed file: %v, %v", q, err)
			}

			s, _ := openT(t, t.TempDir())
			if err := s.Put(tc.id, tc.payload); err != nil {
				t.Fatal(err)
			}
			written, err := os.ReadFile(s.path(tc.id))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(written, file) {
				t.Fatalf("Put wrote a different file (%d bytes, want %d)", len(written), len(file))
			}
		})
	}
}

type namedFile struct {
	name string
	file []byte
}

// corruptions returns a valid checkpoint file followed by one damaged
// variant of it per corruption kind the validators distinguish.
func corruptions() []namedFile {
	good := handBuilt(11, bytes.Repeat([]byte("adjoint "), 512))
	mut := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	// rehash re-seals a header so only the intended field is wrong.
	rehash := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[20:], crc32.ChecksumIEEE(b[:20]))
		return b
	}
	return []namedFile{
		{"valid", good},
		{"truncated-header", good[:headerSize-5]},
		{"bad-magic", mut(func(b []byte) []byte { b[0] = 'X'; return rehash(b) })},
		{"bad-version", mut(func(b []byte) []byte { b[4] = 9; return rehash(b) })},
		{"bad-header-crc", mut(func(b []byte) []byte { b[20] ^= 0x10; return b })},
		{"length-mismatch", mut(func(b []byte) []byte { b[16]++; return rehash(b) })},
		{"payload-bit-flip", mut(func(b []byte) []byte { b[headerSize+2000] ^= 0x04; return b })},
		{"truncated-trailer", good[:len(good)-2]},
	}
}

// TestValidatorsAgreeOnCorruptionKinds runs every corruption kind through
// both validators: the streaming one (Open, Scrub) and decode (Get).
func TestValidatorsAgreeOnCorruptionKinds(t *testing.T) {
	for _, c := range corruptions() {
		t.Run(c.name, func(t *testing.T) {
			id, n, err := checkValidatorsAgree(t, c.file)
			if c.name == "valid" {
				if err != nil || id != 11 || n != 4096 {
					t.Fatalf("valid file: id %d, size %d, %v", id, n, err)
				}
				return
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// checkValidatorsAgree writes file as a checkpoint, validates it both
// ways, fails t on any disagreement, and returns the streaming verdict.
func checkValidatorsAgree(t *testing.T, file []byte) (int64, int64, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "0"+fileSuffix)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	id, n, err := validateFile(path)
	payload, decID, decErr := decode(file)
	if (err == nil) != (decErr == nil) {
		t.Fatalf("validators disagree: streaming %v, decode %v", err, decErr)
	}
	if err == nil && (id != decID || n != int64(len(payload))) {
		t.Fatalf("validators disagree: streaming id %d size %d, decode id %d size %d", id, n, decID, len(payload))
	}
	return id, n, err
}

// FuzzStoreValidate differentially checks the streaming validator against
// decode on arbitrary file contents: they must agree on accept or reject,
// and on the id and payload length of an accepted file.
func FuzzStoreValidate(f *testing.F) {
	for _, c := range corruptions() {
		f.Add(c.file)
	}
	f.Add(handBuilt(0, nil))
	f.Fuzz(func(t *testing.T, file []byte) {
		checkValidatorsAgree(t, file)
	})
}
