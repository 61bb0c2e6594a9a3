// Package chainlog is the framing shared by the repo's checksummed
// line-JSON formats, replay logs and VM snapshots. A stream is one
// JSON object per line: a header {"magic":M,"v":N,...} whose raw bytes
// seed an FNV-64a chain, then body lines (the last one the footer)
// that each end in "ck":"<16 hex>", the chain folded over the previous
// checksum and the line's bytes before the `,"ck"` member.
//
// Blank lines are skipped. A magic or version mismatch is a plain
// error (the wrong kind of file); a line without "ck", a chain break,
// a stream ending before its footer and data after the footer are an
// *Error carrying the line number. Which line is the footer, and what
// any line means, is the client's business.
package chainlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"vmsh/internal/digest"
)

// Error reports damage to a stream's framing at a 1-based line number.
type Error struct {
	Line   int
	Reason string
}

func (e *Error) Error() string { return fmt.Sprintf("chainlog: line %d: %s", e.Line, e.Reason) }

// ckTail is the length of the `,"ck":"<16 hex>"}` member closing a line.
const ckTail = len(`,"ck":"0123456789abcdef"}`)

func chain(prev uint64, b []byte) uint64 { return uint64(digest.New().U64(prev).Bytes(b)) }

// Writer emits a stream; the same lines always encode to the same bytes.
type Writer struct {
	bw  *bufio.Writer
	ck  uint64
	n   int64
	buf []byte
}

// NewWriter writes the header {"magic":magic,"v":version,...} to w;
// fields is a JSON object whose members follow magic and v. magic must
// be a plain identifier (it is not escaped).
func NewWriter(w io.Writer, magic string, version int, fields []byte) (*Writer, error) {
	hdr := fmt.Appendf(nil, `{"magic":"%s","v":%d`, magic, version)
	if len(fields) > 2 {
		hdr = append(append(hdr, ','), fields[1:]...)
	} else {
		hdr = append(hdr, '}')
	}
	cw := &Writer{bw: bufio.NewWriter(w), ck: chain(0, hdr)}
	return cw, cw.put(append(hdr, '\n'))
}

// Line writes one body line: obj, a JSON object with at least one
// member, with the "ck" member appended.
func (w *Writer) Line(obj []byte) error {
	body := obj[:len(obj)-1]
	w.ck = chain(w.ck, body)
	w.buf = fmt.Appendf(append(w.buf[:0], body...), `,"ck":"%016x"}`+"\n", w.ck)
	return w.put(w.buf)
}

func (w *Writer) put(b []byte) error {
	m, err := w.bw.Write(b)
	w.n += int64(m)
	return err
}

// Flush flushes buffered output and returns the bytes written so far.
func (w *Writer) Flush() (int64, error) { return w.n, w.bw.Flush() }

// Read checks the header of the stream in r against magic and version,
// then verifies each body line's chain link and hands the line to
// line, which reports whether it was the footer. It returns the raw
// header line. Errors from line are returned unchanged.
func Read(r io.Reader, magic string, version int, line func(b []byte) (footer bool, err error)) ([]byte, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	n := 0
	next := func() []byte {
		for sc.Scan() {
			if n++; len(bytes.TrimSpace(sc.Bytes())) > 0 {
				return sc.Bytes()
			}
		}
		return nil
	}
	damaged := func(reason string) ([]byte, error) {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, &Error{Line: n, Reason: reason}
	}

	hb := next()
	if hb == nil {
		n++
		return damaged("empty stream")
	}
	var hdr struct {
		Magic *string `json:"magic"`
		V     int     `json:"v"`
	}
	if err := json.Unmarshal(hb, &hdr); err != nil || hdr.Magic == nil {
		return nil, fmt.Errorf("chainlog: not a %s stream (bad header)", magic)
	}
	if *hdr.Magic != magic {
		return nil, fmt.Errorf("chainlog: bad magic %q, want %q", *hdr.Magic, magic)
	}
	if hdr.V != version {
		return nil, fmt.Errorf("%s: version skew: stream is v%d, this reader understands v%d", magic, hdr.V, version)
	}
	header := append([]byte(nil), hb...)
	ck := chain(0, header)
	for b := next(); b != nil; b = next() {
		if len(b) <= ckTail || !bytes.HasPrefix(b[len(b)-ckTail:], []byte(`,"ck":"`)) || !bytes.HasSuffix(b, []byte(`"}`)) {
			return damaged(`unparseable line: no trailing "ck" member`)
		}
		ck = chain(ck, b[:len(b)-ckTail])
		var raw [8]byte
		var want [16]byte
		binary.BigEndian.PutUint64(raw[:], ck)
		hex.Encode(want[:], raw[:])
		if got := b[len(b)-18 : len(b)-2]; !bytes.Equal(got, want[:]) {
			return damaged(fmt.Sprintf("checksum chain mismatch (want %s, stream has %s)", want[:], got))
		}
		footer, err := line(b)
		if err != nil {
			return nil, err
		}
		if !footer {
			continue
		}
		if next() != nil {
			return damaged("trailing data after footer")
		}
		return header, sc.Err()
	}
	n++
	return damaged("truncated stream (no footer)")
}
