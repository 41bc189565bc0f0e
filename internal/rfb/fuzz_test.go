package rfb

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzCorpora maps each fuzz target of the package to the function that
// builds its committed seed corpus (one []byte per fuzz argument).
var fuzzCorpora = map[string]func() map[string][][]byte{
	"FuzzFeedSplit":       feedSeeds,
	"FuzzDecodeMigration": migrationSeeds,
}

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz from the fuzzCorpora builders")

// TestFuzzSeedCorpus keeps every committed seed corpus in step with the
// function that builds it (run with -update to regenerate them).
func TestFuzzSeedCorpus(t *testing.T) {
	for target, build := range fuzzCorpora {
		dir := filepath.Join("testdata", "fuzz", target)
		for name, args := range build() {
			var want strings.Builder
			want.WriteString("go test fuzz v1\n")
			for _, a := range args {
				fmt.Fprintf(&want, "[]byte(%+q)\n", a)
			}
			path := filepath.Join(dir, name)
			if *updateSeeds {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(want.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != want.String() {
				t.Errorf("seed %s/%s is stale (err %v); run go test ./internal/rfb -run TestFuzzSeedCorpus -update",
					target, name, err)
			}
		}
	}
}
