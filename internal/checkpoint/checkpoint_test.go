package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math"
	"strings"
	"testing"
)

func sample() *Snapshot {
	return &Snapshot{
		Kind:    "matscale/test",
		Version: 3,
		Meta: map[string]string{
			"machine": "hypercube(64) ts=17 tw=3",
			"events":  "1024",
			"":        "empty key survives",
		},
		Payload: []byte{0, 1, 2, 254, 255, 0, 42},
	}
}

func TestRoundTrip(t *testing.T) {
	s := sample()
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Kind != s.Kind || got.Version != s.Version {
		t.Fatalf("kind/version: got %q/%d want %q/%d", got.Kind, got.Version, s.Kind, s.Version)
	}
	if len(got.Meta) != len(s.Meta) {
		t.Fatalf("meta size: got %d want %d", len(got.Meta), len(s.Meta))
	}
	for k, v := range s.Meta {
		if got.Meta[k] != v {
			t.Fatalf("meta[%q]: got %q want %q", k, got.Meta[k], v)
		}
	}
	if !bytes.Equal(got.Payload, s.Payload) {
		t.Fatalf("payload: got %v want %v", got.Payload, s.Payload)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := sample().Encode()
	b := sample().Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same snapshot differ")
	}
}

func TestReadWriteTo(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Kind != s.Kind || !bytes.Equal(got.Payload, s.Payload) {
		t.Fatal("Read round trip mismatch")
	}
}

func TestExpect(t *testing.T) {
	s := sample()
	if err := s.Expect("matscale/test", 3); err != nil {
		t.Fatalf("Expect(match): %v", err)
	}
	var ke *KindError
	if err := s.Expect("matscale/other", 3); !errors.As(err, &ke) {
		t.Fatalf("Expect(wrong kind) = %v, want *KindError", err)
	}
	var ve *VersionError
	if err := s.Expect("matscale/test", 4); !errors.As(err, &ve) {
		t.Fatalf("Expect(wrong version) = %v, want *VersionError", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Decode([]byte("not a snapshot at all, sorry")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Decode(garbage) = %v, want ErrBadMagic", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Decode(nil) = %v, want ErrBadMagic", err)
	}
}

// Every strict prefix of a valid container must be rejected with a
// typed error — either the truncation itself or, once the magic is
// cut into, the magic check.
func TestTruncationRejected(t *testing.T) {
	enc := sample().Encode()
	for n := 0; n < len(enc); n++ {
		_, err := Decode(enc[:n])
		if err == nil {
			t.Fatalf("Decode of %d/%d byte prefix succeeded", n, len(enc))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrIntegrity) {
			t.Fatalf("Decode of %d-byte prefix: untyped error %v", n, err)
		}
	}
}

// Every single-bit flip must be caught: by the integrity hash, or (for
// flips inside the magic or the hash itself) by the magic or hash
// comparison.
func TestCorruptionRejected(t *testing.T) {
	enc := sample().Encode()
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		_, err := Decode(mut)
		if err == nil {
			t.Fatalf("Decode with byte %d flipped succeeded", i)
		}
		if !errors.Is(err, ErrIntegrity) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("Decode with byte %d flipped: error %v, want integrity or magic", i, err)
		}
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	e := &Encoder{}
	e.U8(200)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.I64(-12345)
	e.F64(math.Copysign(0, -1))
	e.F64(math.Inf(1))
	e.Str("hello, 世界")
	e.Str("")
	e.Blob([]byte{9, 8, 7})
	e.F64s([]float64{1.5, -2.5, math.Pi})
	e.F64s(nil)

	// The one-byte and float encodings have no decoder of their own
	// (snapshot state is verified by re-encoding), so their bytes are
	// checked through the fixed-width readers.
	if b := e.Data()[:3]; b[0] != 200 || b[1] != 1 || b[2] != 0 {
		t.Fatalf("U8/Bool bytes = %v", b)
	}
	d := NewDecoder(e.Data()[3:])
	if v := d.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %x", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Fatalf("U64 = %d", v)
	}
	if v := int64(d.U64()); v != -12345 {
		t.Fatalf("I64 = %d", v)
	}
	if v := math.Float64frombits(d.U64()); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("F64 -0 = %v", v)
	}
	if v := math.Float64frombits(d.U64()); !math.IsInf(v, 1) {
		t.Fatalf("F64 +Inf = %v", v)
	}
	if v := d.Str(); v != "hello, 世界" {
		t.Fatalf("Str = %q", v)
	}
	if v := d.Str(); v != "" {
		t.Fatalf("empty Str = %q", v)
	}
	if v := d.Blob(); !bytes.Equal(v, []byte{9, 8, 7}) {
		t.Fatalf("Blob = %v", v)
	}
	want := []float64{1.5, -2.5, math.Pi}
	if n := d.U64(); n != uint64(len(want)) {
		t.Fatalf("F64s length = %d", n)
	}
	for i := range want {
		if got := math.Float64frombits(d.U64()); got != want[i] {
			t.Fatalf("F64s[%d] = %v want %v", i, got, want[i])
		}
	}
	if n := d.U64(); n != 0 {
		t.Fatalf("nil F64s length = %d", n)
	}
	if d.Err() != nil || d.Len() != 0 {
		t.Fatalf("after decoding: err %v, %d unread bytes", d.Err(), d.Len())
	}
}

func TestDecoderSticky(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // runs out
	if d.Err() == nil {
		t.Fatal("U64 on 2 bytes should fail")
	}
	first := d.Err()
	_ = d.Str()
	_ = d.Blob()
	if !errors.Is(d.Err(), first) && d.Err() != first {
		t.Fatalf("error not sticky: %v then %v", first, d.Err())
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", d.Err())
	}
}

// A hostile length prefix must not drive an allocation anywhere near
// the prefix value; the decoder bounds every length by the remaining
// input first.
func TestHostileLengths(t *testing.T) {
	e := &Encoder{}
	e.U64(math.MaxUint64)
	d := NewDecoder(e.Data())
	if v := d.Blob(); v != nil || d.Err() == nil {
		t.Fatal("Blob with absurd count must fail, not allocate")
	}
	d = NewDecoder([]byte{255, 255, 255, 255})
	if v := d.Str(); v != "" || d.Err() == nil {
		t.Fatal("Str with absurd count must fail")
	}
}

func TestDuplicateMetaRejected(t *testing.T) {
	// Hand-build a container with a duplicated metadata key; the hash
	// is recomputed so only the duplicate check can reject it.
	e := &Encoder{}
	e.raw(magic[:])
	e.Str("matscale/test")
	e.U32(1)
	e.U32(2)
	e.Str("k")
	e.Str("v1")
	e.Str("k")
	e.Str("v2")
	e.Blob(nil)
	sum := sha256.Sum256(e.Data())
	e.raw(sum[:])
	if _, err := Decode(e.Data()); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("Decode(duplicate meta) = %v", err)
	}
}
