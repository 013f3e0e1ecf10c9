package diffuzz

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// ReproSchema identifies the repro file format, mirroring the
// "dirq/bench/v1" convention of the bench baselines.
const ReproSchema = "dirq/diffuzz-repro/v1"

// Repro is one minimized failing (or pinned passing) case on disk. The
// full config and script are serialized, not just the seed, so a corpus
// entry stays runnable even after the generator's draw sequence changes.
type Repro struct {
	Schema string `json:"schema"`
	// Oracle is the oracle that diverged (one of AllOracles).
	Oracle string `json:"oracle"`
	// Note is free-form context: what the divergence was, or why a
	// passing case was pinned.
	Note string `json:"note,omitempty"`
	Case
}

// Validate rejects malformed repro files.
func (r Repro) Validate() error {
	if r.Schema != ReproSchema {
		return fmt.Errorf("diffuzz: repro schema %q, want %q", r.Schema, ReproSchema)
	}
	known := false
	for _, o := range AllOracles() {
		if o == r.Oracle {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("diffuzz: repro names unknown oracle %q", r.Oracle)
	}
	if r.Script == nil {
		return fmt.Errorf("diffuzz: repro has no script")
	}
	if err := r.Script.Validate(); err != nil {
		return err
	}
	return r.Cfg.Validate()
}

// ReproName is the canonical corpus filename for a seed+oracle pair.
func ReproName(seed uint64, oracle string) string {
	return fmt.Sprintf("repro-%d-%s.json", seed, oracle)
}

// WriteRepro writes one repro into dir (created if missing) and returns
// the file path.
func WriteRepro(dir string, r Repro) (string, error) {
	r.Schema = ReproSchema
	if err := r.Validate(); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, ReproName(r.Seed, r.Oracle))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadRepro reads and validates one repro file.
func LoadRepro(path string) (Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Repro{}, err
	}
	r, err := decodeRepro(data)
	if err != nil {
		return Repro{}, fmt.Errorf("diffuzz: %s: %w", path, err)
	}
	return r, nil
}

// decodeRepro decodes and validates the contents of one repro file.
func decodeRepro(data []byte) (Repro, error) {
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return Repro{}, err
	}
	if err := r.Validate(); err != nil {
		return Repro{}, err
	}
	return r, nil
}

// LoadCorpus loads every *.json repro in dir, sorted by filename. A
// missing directory is an empty corpus, not an error.
func LoadCorpus(dir string) ([]Repro, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	repros := make([]Repro, 0, len(names))
	for _, name := range names {
		r, err := LoadRepro(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		repros = append(repros, r)
	}
	return repros, nil
}
