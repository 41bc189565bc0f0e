package hub

import (
	"bytes"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzParsePreamble is the safety net for the first line a hub reads from
// an untrusted connection: ParsePreamble never reads past the newline or
// more than MaxPreambleLen bytes, and a line it accepts, written back with
// Preamble.WriteTo, reproduces exactly the bytes it consumed. ReadPreamble,
// fed the same bytes and a protocol hello in segments of random sizes,
// returns the same Preamble or error, and a connection that yields exactly
// the bytes after the line.
func FuzzParsePreamble(f *testing.F) {
	// What the dial helpers write, followed by protocol bytes the parser
	// must leave unread.
	for _, p := range []Preamble{{HomeID: "home-0007"}, {HomeID: "home-0007", Token: "6f1a9c"}, {HomeID: TokenHome, Token: "6f1a9c"}} {
		var b bytes.Buffer
		if err := WritePreambleToken(&b, p.HomeID, p.Token); err != nil {
			f.Fatal(err)
		}
		f.Add(append(b.Bytes(), "UII 001.000\n"...))
	}
	// One input per rejection branch.
	for _, s := range []string{
		"UNIHUB/1 home-0007",                   // no newline before EOF
		"GARBAGE home-0007\n",                  // missing magic
		"UNIHUB/1 home-0007 \n",                // empty token field
		"UNIHUB/1 home-0007 a b\n",             // space inside the token field
		"UNIHUB/1  6f1a9c\n",                   // empty home id
		"UNIHUB/1 ~\n",                         // token routing without a token
		"UNIHUB/1 " + strings.Repeat("x", 300), // line too long
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadPreamble(t, data)
		r := bytes.NewReader(data)
		p, err := ParsePreamble(r)
		consumed := data[:len(data)-r.Len()]
		if len(consumed) > MaxPreambleLen {
			t.Fatalf("read %d bytes, more than MaxPreambleLen", len(consumed))
		}
		if nl := bytes.IndexByte(consumed, '\n'); nl >= 0 && nl != len(consumed)-1 {
			t.Fatalf("read %d bytes past the newline", len(consumed)-1-nl)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := p.WriteTo(&out); err != nil {
			t.Fatalf("accepted %q does not write back: %v", consumed, err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("write-back diverged\n  in: %q\n out: %q", consumed, out.Bytes())
		}
	})
}

// checkReadPreamble asserts that ReadPreamble, reading data followed by a
// protocol hello in random segments, agrees with ParsePreamble's verdict on
// data and hands on exactly the bytes after the line.
func checkReadPreamble(t *testing.T, data []byte) {
	stream := append(slices.Clone(data), "RFB 003.008\n"...)
	r := bytes.NewReader(stream)
	want, wantErr := ParsePreamble(r)
	trailing := stream[len(stream)-r.Len():]

	seed := fnv.New64a()
	seed.Write(data)
	rng := rand.New(rand.NewSource(int64(seed.Sum64())))
	c := &segmentConn{}
	for rest := stream; len(rest) > 0; {
		n := min(1+rng.Intn(MaxPreambleLen/4), len(rest))
		c.segs = append(c.segs, rest[:n])
		rest = rest[n:]
	}
	got, conn, err := ReadPreamble(c)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("ReadPreamble error %v, ParsePreamble error %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if got != want {
		t.Fatalf("ReadPreamble %+v, ParsePreamble %+v", got, want)
	}
	if rest, _ := io.ReadAll(conn); !bytes.Equal(rest, trailing) {
		t.Fatalf("the connection yields %q after the line, want %q", rest, trailing)
	}
}

// segmentConn is a connection whose reads return segs one at a time.
// Deadlines and Close are no-ops.
type segmentConn struct {
	net.Conn
	segs [][]byte
}

func (c *segmentConn) SetReadDeadline(time.Time) error { return nil }
func (c *segmentConn) Close() error                    { return nil }

func (c *segmentConn) Read(p []byte) (int, error) {
	if len(c.segs) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.segs[0])
	if c.segs[0] = c.segs[0][n:]; len(c.segs[0]) == 0 {
		c.segs = c.segs[1:]
	}
	return n, nil
}
