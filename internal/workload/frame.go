package workload

// Record framing for durable state. The serving layer's write-ahead
// log, its checkpoints and the scheduler's snapshots are all streams
// of framed records: a fixed header of payload length and CRC followed
// by the payload bytes (newline-terminated text: a workload-trace
// line, a "#" directive or a snapshot record). The frame is what makes
// torn tails detectable: a crash mid-write leaves a truncated header, a
// truncated payload, or a payload whose checksum disagrees with the
// header, and a reader distinguishes all three from a clean end of log.
//
// Wire layout, big-endian:
//
//	[4 bytes payload length][4 bytes IEEE CRC-32 of payload][payload]
//
// The helpers live here rather than in the serving layer so offline
// tools (and tests) can read WAL segments with nothing but the
// workload package.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
)

// frameHeaderSize is the fixed per-record overhead: 4 length bytes and
// 4 CRC bytes.
const frameHeaderSize = 8

// MaxFramePayload bounds one record's payload. It matches the trace
// scanner's 1 MiB line buffer: no legitimate trace line approaches it,
// and the cap stops a corrupt length field from demanding gigabytes.
const MaxFramePayload = 1 << 20

// Named frame errors. ErrFrameTruncated means the buffer ended inside
// a frame (the torn-tail signature of a crash mid-write);
// ErrFrameCorrupt means the frame is structurally complete but its
// checksum or length field is wrong (bit rot, or a torn write that
// landed inside an earlier record).
var (
	ErrFrameTruncated = errors.New("workload: frame truncated")
	ErrFrameCorrupt   = errors.New("workload: frame corrupt")
)

// AppendFrame appends one framed record to dst and returns the
// extended slice. Payloads above MaxFramePayload are refused by
// ReadFrame, so writers must keep records under the cap; AppendFrame
// panics on oversize payloads to surface the programming error at the
// write site rather than as unreadable logs later.
func AppendFrame(dst []byte, payload []byte) []byte {
	if len(payload) > MaxFramePayload {
		panic(fmt.Sprintf("workload: frame payload %d bytes exceeds MaxFramePayload", len(payload)))
	}
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// FrameSize returns the encoded size of a record with payloadLen
// payload bytes.
func FrameSize(payloadLen int) int { return frameHeaderSize + payloadLen }

// ReadFrame decodes the first frame in b, returning its payload (a
// subslice of b, not a copy) and the remaining bytes. A short buffer
// returns ErrFrameTruncated; a bad length or checksum returns
// ErrFrameCorrupt. Both errors carry context; errors.Is matches the
// sentinel.
func ReadFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < frameHeaderSize {
		return nil, b, fmt.Errorf("%w: %d header bytes of %d", ErrFrameTruncated, len(b), frameHeaderSize)
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n > MaxFramePayload {
		return nil, b, fmt.Errorf("%w: declared payload %d bytes exceeds cap %d", ErrFrameCorrupt, n, MaxFramePayload)
	}
	if len(b) < frameHeaderSize+int(n) {
		return nil, b, fmt.Errorf("%w: %d payload bytes of %d", ErrFrameTruncated, len(b)-frameHeaderSize, n)
	}
	payload = b[frameHeaderSize : frameHeaderSize+int(n)]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(b[4:8]); got != want {
		return nil, b, fmt.Errorf("%w: crc %08x, header says %08x", ErrFrameCorrupt, got, want)
	}
	return payload, b[frameHeaderSize+int(n):], nil
}

// AppendLines frames each newline-terminated line of text as one
// record and appends the frames to dst. A line past MaxFramePayload is
// an error, and dst is returned unchanged.
func AppendLines(dst, text []byte) ([]byte, error) {
	out := dst
	for k := 1; len(text) > 0; k++ {
		n := bytes.IndexByte(text, '\n') + 1
		if n == 0 {
			n = len(text)
		}
		if n > MaxFramePayload {
			return dst, fmt.Errorf("workload: line %d of %d bytes exceeds MaxFramePayload", k, n)
		}
		out = AppendFrame(out, text[:n])
		text = text[n:]
	}
	return out, nil
}

// ReadLines decodes a stream of one-line records, as AppendLines
// writes them, into its lines without their newlines. Any frame error
// fails the whole stream, as does a record that is not exactly one
// newline-terminated line (ErrFrameCorrupt).
func ReadLines(b []byte) ([]string, error) {
	var lines []string
	for len(b) > 0 {
		payload, rest, err := ReadFrame(b)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", len(lines)+1, err)
		}
		line, ok := strings.CutSuffix(string(payload), "\n")
		if !ok || strings.IndexByte(line, '\n') >= 0 {
			return nil, fmt.Errorf("%w: record %d is not one newline-terminated line", ErrFrameCorrupt, len(lines)+1)
		}
		lines = append(lines, line)
		b = rest
	}
	return lines, nil
}
