package diffuzz

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadRepro feeds repro file contents through decodeRepro, the decode
// and Validate that LoadRepro runs. It may not panic, and a repro it
// accepts must re-marshal to bytes that decode and validate to an equal
// repro. The corpus is seeded from the committed repros. Run it with
//
//	go test -run '^$' -fuzz '^FuzzLoadRepro$' -fuzztime 20s ./internal/diffuzz/
func FuzzLoadRepro(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no committed repros to seed the corpus")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRepro(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("re-marshaling %+v: %v", r, err)
		}
		r2, err := decodeRepro(enc)
		if err != nil {
			t.Fatalf("re-marshaled repro %s: %v", enc, err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("re-marshaled repro %s decodes to %+v, want %+v", enc, r2, r)
		}
	})
}
