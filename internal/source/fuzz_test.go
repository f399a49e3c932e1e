package source_test

import (
	"os"
	"path/filepath"
	"testing"

	"perfpredict/internal/sem"
	"perfpredict/internal/source"
)

// FuzzParseSource feeds arbitrary text to the F-lite front end: Parse
// must return a program or an error and never panic, and semantic
// analysis of any program Parse accepts must not panic either. Seeded
// with the corpus programs.
func FuzzParseSource(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "programs", "*.f"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("corpus programs: %v (%d found)", err, len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := source.Parse(src)
		if err != nil {
			return
		}
		sem.Analyze(prog)
	})
}
