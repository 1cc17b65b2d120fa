// Package checkpoint defines the snapshot container every matscale
// checkpoint travels in: a versioned, self-describing binary envelope
// with an integrity hash, plus the deterministic little-endian
// encoder/decoder primitives the engines use to serialize their state
// into it.
//
// The container is deliberately dumb: a kind string and a kind version
// identify the payload schema (the des engine and the sweep engine
// each own one), a small sorted metadata section carries the
// human-readable facts a reader needs before committing to a decode
// (machine fingerprint, event count, cell counts), and the payload is
// an opaque byte string whose schema belongs entirely to the producer.
// A SHA-256 hash over everything preceding it makes truncation and
// bit-rot first-class, typed decode errors instead of garbage state.
//
// Determinism contract: Encode is a pure function of the Snapshot
// value (metadata is emitted in sorted key order), so two snapshots of
// identical state are byte-identical — which is what lets the des
// engine *verify* a resume by re-encoding its replayed state and
// comparing bytes. See docs/BACKENDS.md for the consistent-cut
// argument built on top of this container.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// magic opens every container. The trailing "01" is the container
// format version: it covers the envelope layout only, not payload
// schemas, which are versioned per kind.
var magic = [8]byte{'M', 'S', 'C', 'K', 'P', 'T', '0', '1'}

// Typed decode failures. They are sentinel values so callers can
// classify with errors.Is; the errors returned by Decode wrap them
// with positional detail.
var (
	// ErrBadMagic reports input that is not a matscale snapshot (or is
	// a container format this build does not read).
	ErrBadMagic = errors.New("checkpoint: not a matscale snapshot")
	// ErrTruncated reports input that ends before the structure it
	// promises is complete.
	ErrTruncated = errors.New("checkpoint: snapshot truncated")
	// ErrIntegrity reports an integrity hash mismatch: the bytes were
	// altered after Encode.
	ErrIntegrity = errors.New("checkpoint: integrity hash mismatch")
)

// KindError reports a snapshot of the wrong kind handed to a reader.
type KindError struct {
	Want, Got string
}

func (e *KindError) Error() string {
	return fmt.Sprintf("checkpoint: snapshot kind %q, want %q", e.Got, e.Want)
}

// VersionError reports a payload schema version this build does not
// understand.
type VersionError struct {
	Kind      string
	Want, Got uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: %s snapshot version %d, want %d", e.Kind, e.Got, e.Want)
}

// Snapshot is one decoded (or to-be-encoded) checkpoint container.
type Snapshot struct {
	// Kind names the payload schema, e.g. "matscale/des-run".
	Kind string
	// Version is the payload schema version within Kind.
	Version uint32
	// Meta carries small self-describing facts about the payload.
	Meta map[string]string
	// Payload is the producer-owned state encoding.
	Payload []byte
}

// Expect validates the snapshot's kind and version, returning a typed
// error on mismatch.
func (s *Snapshot) Expect(kind string, version uint32) error {
	if s.Kind != kind {
		return &KindError{Want: kind, Got: s.Kind}
	}
	if s.Version != version {
		return &VersionError{Kind: kind, Want: version, Got: s.Version}
	}
	return nil
}

// Encode renders the container: magic, kind, version, sorted metadata,
// payload, SHA-256 over all of it. It is deterministic: equal
// Snapshots encode to equal bytes.
func (s *Snapshot) Encode() []byte {
	e := &Encoder{}
	e.raw(magic[:])
	e.Str(s.Kind)
	e.U32(s.Version)
	keys := make([]string, 0, len(s.Meta))
	for k := range s.Meta { //nodetbreak:ordered — keys are sorted below before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.Str(s.Meta[k])
	}
	e.Blob(s.Payload)
	sum := sha256.Sum256(e.buf)
	e.raw(sum[:])
	return e.buf
}

// WriteTo writes the encoded container to w.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(s.Encode())
	return int64(n), err
}

// Decode parses and verifies a container. Every malformed input maps
// to a typed error (ErrBadMagic, ErrTruncated, ErrIntegrity — possibly
// wrapped); no input panics.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, ErrBadMagic
	}
	if len(data) < sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the integrity hash", ErrTruncated, len(data))
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	want := sha256.Sum256(body)
	if !bytes.Equal(sum, want[:]) {
		return nil, ErrIntegrity
	}
	d := NewDecoder(body[len(magic):])
	s := &Snapshot{}
	s.Kind = d.Str()
	s.Version = d.U32()
	n := d.U32()
	if d.Err() == nil && n > 0 {
		s.Meta = make(map[string]string, n)
		for i := uint32(0); i < n && d.Err() == nil; i++ {
			k := d.Str()
			v := d.Str()
			if _, dup := s.Meta[k]; dup {
				return nil, fmt.Errorf("checkpoint: duplicate metadata key %q", k)
			}
			s.Meta[k] = v
		}
	}
	s.Payload = d.Blob()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		// The hash matched, so trailing bytes mean an encoder bug, not
		// corruption; refuse rather than silently ignore.
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after payload", d.Len())
	}
	return s, nil
}

// Read consumes r to EOF and decodes the container.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read snapshot: %w", err)
	}
	return Decode(data)
}

// Encoder accumulates a deterministic little-endian byte encoding. The
// zero value is ready to use.
type Encoder struct {
	buf []byte
}

func (e *Encoder) raw(b []byte) { e.buf = append(e.buf, b...) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends an int64 as its two's-complement uint64 image.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit image. NaN payloads and
// signed zeros round-trip exactly: byte identity, not numeric equality,
// is the contract.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed UTF-8 string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte string.
func (e *Encoder) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// F64s appends a length-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Data returns the accumulated encoding. The slice aliases the
// encoder's buffer; further writes may grow away from it.
func (e *Encoder) Data() []byte { return e.buf }

// Decoder reads back an Encoder's byte stream. Errors are sticky:
// after the first failure every read returns a zero value and Err
// reports the failure, so decode sequences need a single check.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps b for reading.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode failure, nil if none so far.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.b) - d.off }

// take returns the next n bytes, failing with ErrTruncated when fewer
// remain.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Len() < n {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d, have %d", ErrTruncated, n, d.off, d.Len())
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.U32()
	return string(d.take(int(n)))
}

// Blob reads a length-prefixed byte string. The result aliases the
// decoder's input.
func (d *Decoder) Blob() []byte {
	n := d.U64()
	if d.err == nil && n > uint64(d.Len()) {
		d.err = fmt.Errorf("%w: blob of %d bytes at offset %d exceeds %d remaining", ErrTruncated, n, d.off, d.Len())
		return nil
	}
	return d.take(int(n))
}
