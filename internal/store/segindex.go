package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"medshare/internal/wire"
)

// Sealed-segment index: when a segment rotates out of the active
// position, the store writes a sidecar `<segment>.idx` listing every
// frame of the segment in order (node records keyed by subtree digest).
// Recovery then registers a sealed segment's nodes without reading
// their payloads and re-verifies only the low-rate metadata records —
// the "load the root, replay the tail" shape: full scans are paid only
// for the active segment.
//
// An entry is the record kind, the node digest for a node record, and
// the frame size as a varint; frames lie back to back from the format
// frame at offset 0, so offsets are the running sums of the sizes.
//
// The index is strictly an accelerator. It carries its own checksum,
// and any decode or spot-check failure falls back to a full CRC scan
// of the segment itself — recovery correctness never depends on an
// index being present or intact.

// segEntry locates one record within its segment.
type segEntry struct {
	kind byte
	dig  [digLen]byte // node digest; zero for non-node records
	off  int64        // frame offset within the segment
	size int64        // full frame size (header + payload)
}

const (
	segIndexMagic   = "MSIX"
	segIndexVersion = 2
	segIndexHdrLen  = 4 + 1 // magic, version
	// maxSegIndexEntries bounds allocation on corrupt counts.
	maxSegIndexEntries = 1 << 26
	// maxSegIndexBytes bounds the sidecar read at open.
	maxSegIndexBytes int64 = segIndexHdrLen + binary.MaxVarintLen64 + maxSegIndexEntries*(1+digLen+binary.MaxVarintLen64) + 4
)

var errBadSegIndex = errors.New("store: segment index corrupt")

// encodeSegIndex serializes entries: magic, version, varint count, the
// entries, trailing CRC32C over everything before it. Entries must lie
// back to back from offset 0, as a segment's frames do.
func encodeSegIndex(entries []segEntry) []byte {
	out := make([]byte, 0, segIndexHdrLen+binary.MaxVarintLen64+len(entries)*(1+3)+4)
	out = append(out, segIndexMagic...)
	out = append(out, segIndexVersion)
	out = binary.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = append(out, e.kind)
		if e.kind == kindNode {
			out = append(out, e.dig[:]...)
		}
		out = binary.AppendUvarint(out, uint64(e.size))
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// decodeSegIndex parses an index file, rejecting any structural or
// checksum damage.
func decodeSegIndex(data []byte) ([]segEntry, error) {
	if len(data) < segIndexHdrLen+1+4 {
		return nil, fmt.Errorf("%w: %d bytes", errBadSegIndex, len(data))
	}
	if string(data[:4]) != segIndexMagic || data[4] != segIndexVersion {
		return nil, fmt.Errorf("%w: bad magic/version", errBadSegIndex)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", errBadSegIndex)
	}
	r := wire.NewReader(body[segIndexHdrLen:], errBadSegIndex)
	// An entry is at least its kind byte and a one-byte size.
	n := r.Count(2)
	if n > maxSegIndexEntries {
		r.Fail(fmt.Sprintf("%d entries", n))
		n = 0
	}
	entries := make([]segEntry, n)
	off := int64(0)
	for i := range entries {
		e := &entries[i]
		if e.kind = r.Byte(); e.kind == kindNode {
			r.Fixed(e.dig[:])
		}
		size := r.Uvarint()
		if size < frameHdrLen || size > frameHdrLen+maxPayload {
			r.Fail(fmt.Sprintf("entry %d size %d", i, size))
		}
		e.off, e.size = off, int64(size)
		off += e.size
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return entries, nil
}
