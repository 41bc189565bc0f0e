package hub

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParsePreamble is the safety net for the first line a hub reads from
// an untrusted connection: ParsePreamble never reads past the newline or
// more than MaxPreambleLen bytes, and a line it accepts, written back with
// Preamble.WriteTo, reproduces exactly the bytes it consumed.
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
