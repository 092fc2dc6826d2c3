// Package frame is the one checksummed record frame written to disk, shared
// by the spill tier's run files ("SPF1") and papard's job journal ("PJL1"):
//
//	uint32 magic | uint32 payloadLen | payload | uint32 crc32c(payload)
//
// all little-endian. The length field is untrusted: every parse bounds it
// before anything is sliced or allocated, so a damaged header is an error,
// never a multi-gigabyte allocation.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

const (
	HeaderSize  = 8 // magic + payload length
	TrailerSize = 4 // CRC32C of the payload
	Overhead    = HeaderSize + TrailerSize
)

// Parse failures; callers that report a reason keep the text.
var (
	ErrShortHeader = errors.New("truncated frame header")
	ErrMagic       = errors.New("bad frame magic")
	ErrLength      = errors.New("frame length out of bounds")
	ErrCRC         = errors.New("frame CRC mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Append appends one frame carrying payload to dst.
func Append(dst []byte, magic uint32, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

// ParseHeader checks a header's magic and returns its payload length, which
// must not exceed limit (the bytes left behind the header, or a format limit).
func ParseHeader(hdr []byte, magic uint32, limit int64) (int64, error) {
	if len(hdr) < HeaderSize {
		return 0, ErrShortHeader
	}
	if binary.LittleEndian.Uint32(hdr) != magic {
		return 0, ErrMagic
	}
	if n := int64(binary.LittleEndian.Uint32(hdr[4:])); n <= limit {
		return n, nil
	}
	return 0, ErrLength
}

// Verify checks payload against the 4-byte CRC trailer that follows it.
func Verify(payload, trailer []byte) error {
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return ErrCRC
	}
	return nil
}

// Next parses and verifies the frame at the start of data, returning its
// payload (aliasing data) and the frame's size. Payloads over limit are damage.
func Next(data []byte, magic uint32, limit int) (payload []byte, size int, err error) {
	n, err := ParseHeader(data, magic, int64(min(limit, len(data)-Overhead)))
	if err != nil {
		return nil, 0, err
	}
	payload = data[HeaderSize : HeaderSize+n]
	if err := Verify(payload, data[HeaderSize+n:]); err != nil {
		return nil, 0, err
	}
	return payload, Overhead + int(n), nil
}
