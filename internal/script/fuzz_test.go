package script

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzExpandKills bounds the cascade kills a fuzz input may expand to, so
// every iteration stays cheap; Validate's own cap is far larger.
const fuzzExpandKills = 10000

// FuzzParse checks that Parse never panics on any input, and that a script
// it accepts expands without error into a timeline of epochs that are
// ascending and non-negative, with one kill per cascade count. The corpus
// is seeded from the committed scripts. Run it with
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 20s ./internal/script/
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scripts", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no committed scripts to seed the corpus")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		kills, plain := 0, 0
		for _, e := range s.Events {
			if e.Op == OpCascade {
				kills += e.Count
			} else {
				plain++
			}
		}
		if kills > fuzzExpandKills {
			return
		}
		out, err := s.Expand()
		if err != nil {
			t.Fatalf("Parse accepted a script Expand rejects: %v", err)
		}
		if len(out) != plain+kills {
			t.Fatalf("Expand returned %d events, want %d", len(out), plain+kills)
		}
		for i, e := range out {
			if e.At < 0 {
				t.Fatalf("event %d (%s) at negative epoch", i, e)
			}
			if i > 0 && e.At < out[i-1].At {
				t.Fatalf("event %d (%s) before event %d (%s)", i, e, i-1, out[i-1])
			}
		}
	})
}
