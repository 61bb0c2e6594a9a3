// Package chainlogtest is the round-trip and corruption contract every
// chainlog client meets, in the style of testing/fstest: a client
// describes its codec once and Run checks it, so replay logs and VM
// snapshots cannot drift apart in how they treat damaged input.
package chainlogtest

import (
	"bytes"
	"strings"
	"testing"
)

// Codec adapts one chainlog client to the suite.
type Codec struct {
	// Sample is a canonically encoded stream with at least two body
	// lines before the footer; Skew is one of another format version.
	Sample, Skew []byte
	// Reencode decodes b and, on success, encodes the result again.
	Reencode func(b []byte) ([]byte, error)
	// Corrupt reports whether err is the client's typed corruption
	// error, onto which all framing damage must map.
	Corrupt func(err error) bool
}

// Run checks c: a canonical round trip that ignores blank lines;
// typed corruption for every single-byte flip past the header (any
// error inside it); typed corruption naming its cause for every
// dropped or reordered record line, truncation at or inside every
// line, trailing data, unparseable line and empty stream; and a plain
// error for a foreign magic and for version skew.
func Run(t *testing.T, c Codec) {
	lines := bytes.SplitAfter(c.Sample, []byte("\n"))
	lines = lines[:len(lines)-1] // Sample ends in a newline
	if len(lines) < 4 {
		t.Fatalf("sample has %d lines, want a header, two records and a footer", len(lines))
	}
	edited := func(f func(ls [][]byte) [][]byte) []byte {
		return bytes.Join(f(append([][]byte(nil), lines...)), nil)
	}
	// perLine builds one damaged stream per body line k.
	perLine := func(from, to int, f func(ls [][]byte, k int) [][]byte) (out [][]byte) {
		for k := from; k < to; k++ {
			out = append(out, edited(func(ls [][]byte) [][]byte { return f(ls, k) }))
		}
		return out
	}
	tail := func(b string) []byte { return append(append([]byte(nil), c.Sample...), b...) }
	// Each damaged case names the keyword its error must carry; both
	// clients put the chainlog reason into their own error text.
	damaged := []struct {
		name, keyword string
		streams       [][]byte
	}{
		{"deleted record line", "checksum chain", perLine(1, len(lines)-1, func(ls [][]byte, k int) [][]byte { return append(ls[:k], ls[k+1:]...) })},
		{"swapped record lines", "checksum chain", perLine(1, len(lines)-1, func(ls [][]byte, k int) [][]byte {
			ls[k], ls[k+1] = ls[k+1], ls[k]
			return ls
		})},
		{"truncated (no footer)", "truncated", perLine(1, len(lines), func(ls [][]byte, k int) [][]byte { return ls[:k] })},
		{"truncated inside a line", "unparseable", perLine(1, len(lines), func(ls [][]byte, k int) [][]byte { return append(ls[:k], ls[k][:len(ls[k])/2]) })},
		{"trailing data after footer", "trailing", [][]byte{tail(string(lines[1])), tail(string(lines[len(lines)-1])), tail("junk\n")}},
		{"not json", "unparseable", perLine(1, len(lines), func(ls [][]byte, k int) [][]byte {
			ls[k] = []byte("not json at all\n")
			return ls
		})},
		{"empty stream", "empty stream", [][]byte{nil, []byte("\n \n")}},
	}

	t.Run("round trip", func(t *testing.T) {
		spaced := bytes.ReplaceAll(c.Sample, []byte("\n"), []byte("\n \n"))
		for _, in := range [][]byte{c.Sample, spaced} {
			if out, err := c.Reencode(in); err != nil || !bytes.Equal(out, c.Sample) {
				t.Fatalf("stream does not re-encode to the sample (err %v):\n%s", err, in)
			}
		}
	})
	t.Run("flipped byte in record", func(t *testing.T) {
		for i := range c.Sample {
			for _, mask := range []byte{0x01, 0x20, 0x80} {
				b := append([]byte(nil), c.Sample...)
				b[i] ^= mask
				if _, err := c.Reencode(b); err == nil || (i >= len(lines[0]) && !c.Corrupt(err)) {
					t.Fatalf("byte %d ^ %#x: got %v", i, mask, err)
				}
			}
		}
	})
	for _, d := range damaged {
		t.Run(d.name, func(t *testing.T) {
			for _, b := range d.streams {
				if _, err := c.Reencode(b); !c.Corrupt(err) || !strings.Contains(err.Error(), d.keyword) {
					t.Errorf("want typed corruption mentioning %q, got %v for:\n%s", d.keyword, err, b)
				}
			}
		})
	}
	t.Run("foreign magic", func(t *testing.T) {
		at := bytes.Index(lines[0], []byte(`"magic":"`))
		if at < 0 {
			t.Fatalf("sample header has no magic: %s", lines[0])
		}
		at += len(`"magic":"`)
		foreign := edited(func(ls [][]byte) [][]byte {
			ls[0] = append(append(append([]byte(nil), ls[0][:at]...), "foreign-"...), ls[0][at:]...)
			return ls
		})
		if _, err := c.Reencode(foreign); err == nil || c.Corrupt(err) || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("want a plain bad-magic error, got %v", err)
		}
	})
	t.Run("version skew", func(t *testing.T) {
		if _, err := c.Reencode(c.Skew); err == nil || c.Corrupt(err) || !strings.Contains(err.Error(), "version skew") {
			t.Fatalf("want a plain version-skew error, got %v", err)
		}
	})
}
