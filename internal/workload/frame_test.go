package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("a 0 AlexNet 16 - 0 1\n"),
		{},
		[]byte("# idem k-1 t/a\n"),
		bytes.Repeat([]byte{0xA5}, 4096),
	}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		var got []byte
		var err error
		got, rest, err = ReadFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload %q, want %q", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the last frame", len(rest))
	}
}

func TestFrameSize(t *testing.T) {
	p := []byte("hello")
	if got := len(AppendFrame(nil, p)); got != FrameSize(len(p)) {
		t.Fatalf("encoded %d bytes, FrameSize says %d", got, FrameSize(len(p)))
	}
}

// Every strict prefix of a valid frame stream must fail with
// ErrFrameTruncated at the frame holding the cut — the torn-tail
// signature recovery keys on.
func TestFrameTruncationAtEveryByte(t *testing.T) {
	full := AppendFrame(nil, []byte("first record\n"))
	full = AppendFrame(full, []byte("second record\n"))
	first := FrameSize(len("first record\n"))
	for cut := 0; cut < len(full); cut++ {
		b := full[:cut]
		if cut >= first {
			var err error
			if _, b, err = ReadFrame(b); err != nil {
				t.Fatalf("cut %d: first frame unreadable: %v", cut, err)
			}
		}
		if cut == len(full) {
			continue
		}
		if _, _, err := ReadFrame(b); !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("cut %d: err %v, want ErrFrameTruncated", cut, err)
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	good := AppendFrame(nil, []byte("payload under test\n"))

	t.Run("payload bit flip", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[10] ^= 0x40
		if _, _, err := ReadFrame(b); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("err %v, want ErrFrameCorrupt", err)
		}
	})
	t.Run("crc bit flip", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[5] ^= 0x01
		if _, _, err := ReadFrame(b); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("err %v, want ErrFrameCorrupt", err)
		}
	})
	t.Run("oversize length", func(t *testing.T) {
		b := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(b[0:4], MaxFramePayload+1)
		if _, _, err := ReadFrame(b); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("err %v, want ErrFrameCorrupt", err)
		}
	})
	t.Run("length shrunk", func(t *testing.T) {
		// A shorter declared length re-frames the payload tail as the
		// next header; the CRC of the shortened payload cannot match.
		b := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(b[0:4], 3)
		if _, _, err := ReadFrame(b); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("err %v, want ErrFrameCorrupt", err)
		}
	})
	t.Run("empty buffer", func(t *testing.T) {
		if _, _, err := ReadFrame(nil); !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("err %v, want ErrFrameTruncated", err)
		}
	})
}

func TestAppendFrameOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversize payload did not panic at the write site")
		}
	}()
	AppendFrame(nil, make([]byte, MaxFramePayload+1))
}

func TestAppendAndReadLines(t *testing.T) {
	text := []byte("snsnap 2\npolicy fifo\n\nend\n")
	b, err := AppendLines([]byte("kept"), text)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := ReadLines(b[len("kept"):])
	if err != nil || strings.Join(lines, "|") != "snsnap 2|policy fifo||end" {
		t.Fatalf("round trip: %q, %v", lines, err)
	}
	if lines, err := ReadLines(nil); err != nil || len(lines) != 0 {
		t.Fatalf("empty stream: %q, %v", lines, err)
	}
	bad := map[string][]byte{
		"torn":            b[len("kept") : len(b)-1],
		"no newline":      AppendFrame(nil, []byte("end")),
		"two lines":       AppendFrame(nil, []byte("a\nb\n")),
		"unterminated in": mustAppendLines(t, []byte("a\nb")),
	}
	for name, data := range bad {
		if _, err := ReadLines(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	long := append(bytes.Repeat([]byte("x"), MaxFramePayload), '\n')
	if got, err := AppendLines([]byte("kept"), append([]byte("ok\n"), long...)); err == nil || string(got) != "kept" {
		t.Fatalf("oversize line: got %d bytes, %v; want dst unchanged and an error", len(got), err)
	}
}

func mustAppendLines(t *testing.T, text []byte) []byte {
	t.Helper()
	b, err := AppendLines(nil, text)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
