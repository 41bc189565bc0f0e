package rfb

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"uniint/internal/gfx"
)

// callLog records the handler call sequence Feed produces, one line per
// call, so two parses can be compared for identical dispatch.
type callLog struct{ calls []string }

func (l *callLog) KeyEvent(ev KeyEvent) { l.calls = append(l.calls, fmt.Sprintf("key %+v", ev)) }
func (l *callLog) PointerEvent(ev PointerEvent) {
	l.calls = append(l.calls, fmt.Sprintf("ptr %+v", ev))
}
func (l *callLog) UpdateRequest(req UpdateRequest) {
	l.calls = append(l.calls, fmt.Sprintf("req %+v", req))
}
func (l *callLog) CutText(s string) { l.calls = append(l.calls, fmt.Sprintf("cut %q", s)) }

// feedOutcome is everything observable about a parse: what the handler
// saw, how the stream ended, and the state the messages negotiated.
type feedOutcome struct {
	calls     []string
	err       string
	received  int64
	pf        gfx.PixelFormat
	encodings []int32
	traceID   uint64
	traceAt   int64
}

// feedPieces parses data cut into pieces of the lengths in cuts (cycled;
// zero-length pieces included), stopping at the first error as a session
// would. Cuts that sum to zero mean one contiguous Feed.
func feedPieces(data, cuts []byte) feedOutcome {
	sc := &ServerConn{pf: gfx.PF32()}
	var log callLog
	sum := 0
	for _, c := range cuts {
		sum += int(c)
	}
	var err error
	if sum == 0 {
		err = sc.Feed(data, &log)
	}
	for i := 0; sum > 0 && err == nil && len(data) > 0; i++ {
		n := int(cuts[i%len(cuts)])
		if n > len(data) {
			n = len(data)
		}
		err = sc.Feed(data[:n], &log)
		data = data[n:]
	}
	out := feedOutcome{calls: log.calls, received: sc.BytesReceived(), pf: sc.PixelFormat(), encodings: sc.encodings}
	out.traceID, out.traceAt = sc.TakeTraceContext()
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// FuzzFeedSplit is the safety net for the one client-message parser: for
// arbitrary bytes and arbitrary split points, feeding in pieces must yield
// the identical handler call sequence, error and BytesReceived (and the
// same negotiated state) as one contiguous Feed.
func FuzzFeedSplit(f *testing.F) {
	// Too large to commit as a corpus file (1 MB escaped): a SetEncodings
	// carrying the maximum 65 535 entries, cut at a stride coprime to 4.
	big := make([]byte, 4+4*65535)
	big[0], big[2], big[3] = msgSetEncodings, 0xFF, 0xFF
	f.Add(big, []byte{251})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		whole := feedPieces(data, nil)
		split := feedPieces(data, cuts)
		if !reflect.DeepEqual(whole, split) {
			t.Fatalf("split parse diverged (cuts %v)\nwhole: %+v\nsplit: %+v", cuts, whole, split)
		}
	})
}

// pixelFormatMsg is a SetPixelFormat message carrying pf.
func pixelFormatMsg(pf gfx.PixelFormat) []byte {
	var b bytes.Buffer
	b.Write([]byte{msgSetPixelFormat, 0, 0, 0})
	writePixelFormat(&b, pf)
	return b.Bytes()
}

// feedSeeds builds the committed FuzzFeedSplit corpus: the clientMsgs
// script whole, every message of it (plus the two it lacks) truncated at
// every length, and the hostile inputs the parser must reject.
func feedSeeds() map[string][2][]byte {
	script := clientMsgs()
	traceCtx := append([]byte{msgTraceContext}, make([]byte, 16)...)
	traceCtx[8], traceCtx[16] = 42, 7
	msgs := map[string][]byte{
		"encodings": script[0:8],
		"key":       script[8:16],
		"pointer":   script[16:22],
		"request":   script[22:32],
		"cuttext":   script[32:42],
		"trace":     traceCtx,
		"pixfmt":    pixelFormatMsg(gfx.PF16()),
	}
	byteByByte := []byte{1}
	seeds := map[string][2][]byte{
		"script":       {script, byteByByte},
		"script-3-0-5": {script, {3, 0, 5}},
		"unknown-type": {append(script[8:16:16], 0xEE, 1, 2, 3), byteByByte},
		"bad-pixfmt":   {pixelFormatMsg(gfx.PixelFormat{BitsPerPixel: 24}), byteByByte},
		// A cut text one byte over the 1 MB limit, behind a valid key event.
		"cuttext-over-limit": {append(script[8:16:16], msgClientCutText, 0, 0, 0, 0, 0x10, 0, 1, 'x'), {2}},
	}
	for name, m := range msgs {
		for n := 1; n < len(m); n++ {
			// The truncated message trails a complete key event, so the
			// retained partial follows real dispatch.
			seeds[fmt.Sprintf("%s-trunc-%02d", name, n)] = [2][]byte{append(script[8:16:16], m[:n]...), byteByByte}
		}
	}
	return seeds
}

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzFeedSplit from feedSeeds")

// TestFuzzSeedCorpus keeps the committed seed corpus in step with
// feedSeeds (run with -update to regenerate it).
func TestFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzFeedSplit")
	seeds := feedSeeds()
	for name, s := range seeds {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%+q)\n[]byte(%+q)\n", s[0], s[1])
		path := filepath.Join(dir, name)
		if *updateSeeds {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("seed %s is stale (err %v); run go test ./internal/rfb -run TestFuzzSeedCorpus -update", name, err)
		}
	}
}
