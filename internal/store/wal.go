package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// WAL framing: every record is
//
//	magic(1) kind(1) length(u32 LE) crc32c(u32 LE) payload
//
// where the CRC (Castagnoli) covers kind, length, and payload. The
// frame is the unit of corruption detection: a scan accepts the
// longest prefix of valid frames and classifies everything after as a
// torn or corrupt tail — never panicking, never returning bytes whose
// checksum does not verify. Atomicity above frames comes from commit
// markers (see store.go): a crash mid-commit leaves a valid-frame
// prefix with no trailing marker, and recovery discards the unmarked
// group.

const (
	frameMagic  = 0xA7
	frameHdrLen = 10
	// maxPayload bounds a single record; a corrupt length field cannot
	// make the scanner allocate unboundedly.
	maxPayload = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTornTail marks a log whose final bytes do not form a valid frame
// — the expected aftermath of a crash mid-write.
var ErrTornTail = errors.New("store: torn or corrupt log tail")

// appendFrame appends one framed record to dst.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	var hdr [frameHdrLen]byte
	hdr[0] = frameMagic
	hdr[1] = kind
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(payload)))
	crc := crc32.Update(0, crcTable, hdr[1:6])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[6:10], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// frameSize returns the on-disk size of a frame with the given payload
// length.
func frameSize(payloadLen int) int64 { return int64(frameHdrLen + payloadLen) }

// parseFrame decodes the frame starting at data[0]. It returns the
// kind, the payload (aliasing data), and the total frame size. A nil
// error means the frame is intact; any framing or checksum failure
// returns ErrTornTail-wrapped detail.
func parseFrame(data []byte) (kind byte, payload []byte, size int64, err error) {
	if len(data) < frameHdrLen {
		return 0, nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrTornTail, len(data))
	}
	if data[0] != frameMagic {
		return 0, nil, 0, fmt.Errorf("%w: bad magic 0x%02x", ErrTornTail, data[0])
	}
	n := binary.LittleEndian.Uint32(data[2:6])
	if n > maxPayload {
		return 0, nil, 0, fmt.Errorf("%w: implausible payload length %d", ErrTornTail, n)
	}
	total := frameHdrLen + int(n)
	if len(data) < total {
		return 0, nil, 0, fmt.Errorf("%w: frame wants %d bytes, %d present", ErrTornTail, total, len(data))
	}
	crc := crc32.Update(0, crcTable, data[1:6])
	crc = crc32.Update(crc, crcTable, data[frameHdrLen:total])
	if crc != binary.LittleEndian.Uint32(data[6:10]) {
		return 0, nil, 0, fmt.Errorf("%w: checksum mismatch", ErrTornTail)
	}
	return data[1], data[frameHdrLen:total], int64(total), nil
}

// scanFrames walks data frame by frame, calling fn for each valid
// record with its offset, until fn returns false or the data ends. It
// returns the length of the valid prefix and, when the prefix does not
// cover all of data, the ErrTornTail-wrapped reason. Scanning never
// resynchronizes past a bad frame: bytes after the first corruption
// are structurally untrustworthy (lengths no longer delimit records),
// so the conservative reading is "valid prefix, then nothing".
func scanFrames(data []byte, fn func(kind byte, payload []byte, off int64) bool) (valid int64, tailErr error) {
	off := int64(0)
	for off < int64(len(data)) {
		kind, payload, size, err := parseFrame(data[off:])
		if err != nil {
			return off, err
		}
		if !fn(kind, payload, off) {
			return off + size, nil
		}
		off += size
	}
	return off, nil
}

// readFrameAt reads and verifies the single frame at off in f (the
// random-access path used to fetch node payloads lazily by digest). A
// frame that is damaged or runs past the end of the file is
// ErrTornTail; any other read error is the device's, returned as is.
func readFrameAt(f File, off int64) (kind byte, payload []byte, err error) {
	var hdr [frameHdrLen]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return 0, nil, readErr("frame header", err)
	}
	n := binary.LittleEndian.Uint32(hdr[2:6])
	if hdr[0] != frameMagic || n > maxPayload {
		return 0, nil, fmt.Errorf("%w: bad frame at offset %d", ErrTornTail, off)
	}
	buf := make([]byte, frameHdrLen+int(n))
	copy(buf, hdr[:])
	if _, err := f.ReadAt(buf[frameHdrLen:], off+frameHdrLen); err != nil {
		return 0, nil, readErr("frame payload", err)
	}
	kind, payload, _, perr := parseFrame(buf)
	return kind, payload, perr
}

// readErr classifies a failed frame read: running off the end of the
// file is a torn frame, anything else an I/O error.
func readErr(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: reading %s: %v", ErrTornTail, what, err)
	}
	return fmt.Errorf("store: reading %s: %w", what, err)
}
