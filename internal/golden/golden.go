// Package golden pins a package's outputs to files under its
// testdata/golden/ directory. It is imported only from _test.go files.
//
// A package lists its pinned outputs as one table of Rows and passes it
// to Run. A row's name says how its output is pinned:
//
//   - "*.json": a JSON document too large to commit, pinned by a
//     manifest in name+".sum": the document's sha256 ("$"), then a short
//     hash per JSON path down to depth, so a mismatch names the paths
//     that moved. Keys are hashed in sorted order, so key order and
//     whitespace move only the "$" line. An array of scalars, or longer
//     than span, is one leaf.
//   - "*.events": a simulated-event stream, pinned by its sha256 alone
//     in name+".sum".
//   - anything else: text, committed whole and compared byte for byte;
//     a mismatch names the first moved lines.
//
// go test -update rewrites the files whose content changed, creates
// missing ones and deletes those no row names, so a deliberate change
// is re-pinned by one command and reviewed as a git diff.
package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden/")

// dir holds the golden files, relative to the test's package directory.
var dir = filepath.Join("testdata", "golden")

const (
	depth = 3  // the deepest JSON path hashed on its own: runs[3].metrics
	span  = 64 // the longest array whose elements are hashed one by one
)

// A Row is one pinned output: its name under testdata/golden/ and the
// producer that computes it. A producer may call t.Skip or t.Fatal.
type Row struct {
	Name    string
	Produce func(t *testing.T) []byte
}

// Once returns a producer that runs produce on its first call and
// returns that result ever after, so several rows can share one run. A
// run that stopped its row (t.Fatal, t.Skip) skips every later one.
func Once[T any](produce func(t *testing.T) T) func(t *testing.T) T {
	var (
		once sync.Once
		v    T
		done bool
	)
	return func(t *testing.T) T {
		once.Do(func() { v, done = produce(t), true })
		if !done {
			t.Skip("golden: the shared run stopped in an earlier row")
		}
		return v
	}
}

// Run checks every row, each as a subtest named after it, then fails on
// any golden file no row names (under -update, deletes it).
func Run(t *testing.T, rows []Row) {
	t.Helper()
	named := map[string]bool{}
	for _, r := range rows {
		if named[fileFor(r.Name)] {
			t.Fatalf("golden: two rows named %s", r.Name)
		}
		named[fileFor(r.Name)] = true
		t.Run(r.Name, func(t *testing.T) {
			if err := check(r.Name, r.Produce(t)); err != nil {
				t.Error(err)
			}
		})
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil || named[filepath.ToSlash(rel)] {
			return err
		}
		if *update {
			return os.Remove(path)
		}
		t.Errorf("golden: %s is pinned by no row (go test -update deletes it)", path)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
}

// check compares got, the output named name, with its golden file, or
// under -update writes the file if its content changed.
func check(name string, got []byte) error {
	path := filepath.Join(dir, filepath.FromSlash(fileFor(name)))
	ext := filepath.Ext(name)
	if ext == ".json" || ext == ".events" {
		m, err := manifest(got, ext == ".json")
		if err != nil {
			return fmt.Errorf("golden: %s: %w", name, err)
		}
		got = m
	}
	want, err := os.ReadFile(path)
	switch {
	case bytes.Equal(got, want):
		return nil
	case *update:
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, got, 0o644)
	case err != nil:
		return fmt.Errorf("golden: %s: %w (go test -update creates it)", name, err)
	}
	moved := "its sha256 moved"
	if ext == ".json" {
		moved = movedPaths(string(want), string(got))
	} else if ext != ".events" {
		moved = movedLines(string(want), string(got))
	}
	return fmt.Errorf("golden: %s moved: %s (go test -update rewrites %s)", name, moved, path)
}

// fileFor is the file, relative to dir and slash-separated, that pins
// the output named name.
func fileFor(name string) string {
	if ext := filepath.Ext(name); ext == ".json" || ext == ".events" {
		return name + ".sum"
	}
	return name
}

// movedLines counts the lines of got that differ from want's, line by
// line (a line keeps its newline), and shows the first.
func movedLines(want, got string) string {
	split := func(s string) []string {
		lines := strings.SplitAfter(s, "\n")
		if lines[len(lines)-1] == "" {
			lines = lines[:len(lines)-1]
		}
		return lines
	}
	w, g := split(want), split(got)
	var moved []int
	for i := 0; i < max(len(w), len(g)); i++ {
		if i >= len(w) || i >= len(g) || w[i] != g[i] {
			moved = append(moved, i+1)
		}
	}
	line := func(lines []string, n int) string {
		if n > len(lines) {
			return ""
		}
		return lines[n-1]
	}
	return fmt.Sprintf("%d lines moved, first at lines %v; line %d was %q, is %q",
		len(moved), moved[:min(5, len(moved))], moved[0], line(w, moved[0]), line(g, moved[0]))
}

// movedPaths names the deepest paths whose hash differs between two
// manifests, or says that only the document's bytes moved.
func movedPaths(want, got string) string {
	hashes := func(m string) map[string]string {
		out := map[string]string{}
		for _, line := range strings.Split(m, "\n") {
			p, h, _ := strings.Cut(line, " ")
			out[p] = h
		}
		return out
	}
	w, g := hashes(want), hashes(got)
	var moved []string
	seen := map[string]bool{"$": true, "": true}
	for _, line := range strings.Split(got+want, "\n") {
		p, _, _ := strings.Cut(line, " ")
		if !seen[p] && w[p] != g[p] {
			moved = append(moved, p)
		}
		seen[p] = true
	}
	// A manifest lists a path right before the paths under it.
	var deepest []string
	for i, p := range moved {
		if i+1 == len(moved) || !strings.HasPrefix(moved[i+1], p+".") && !strings.HasPrefix(moved[i+1], p+"[") {
			deepest = append(deepest, p)
		}
	}
	if len(deepest) == 0 {
		return "no JSON path moved, only the document's bytes (key order, whitespace) or the manifest's layout"
	}
	return fmt.Sprintf("%d JSON paths moved: %s", len(deepest), strings.Join(deepest[:min(8, len(deepest))], ", "))
}

// manifest returns doc's manifest: its sha256 and, with paths set, a
// line per JSON path down to depth.
func manifest(doc []byte, paths bool) ([]byte, error) {
	m := fmt.Appendf(nil, "$ %x\n", sha256.Sum256(doc))
	if !paths {
		return m, nil
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return walk(m, "", v, 1), nil
}

// walk appends to m a line for each child of v, the value at path, and
// recurses while level < depth.
func walk(m []byte, path string, v any, level int) []byte {
	var paths []string
	var vals []any
	switch v := v.(type) {
	case map[string]any:
		for k := range v {
			paths = append(paths, k)
		}
		sort.Strings(paths)
		for i, k := range paths {
			vals = append(vals, v[k])
			if path != "" {
				paths[i] = path + "." + k
			}
		}
	case []any:
		if len(v) > span || !slices.ContainsFunc(v, func(x any) bool {
			_, obj := x.(map[string]any)
			_, arr := x.([]any)
			return obj || arr
		}) {
			break // one leaf
		}
		for i, x := range v {
			paths, vals = append(paths, fmt.Sprintf("%s[%d]", path, i)), append(vals, x)
		}
	}
	for i, p := range paths {
		enc, _ := json.Marshal(vals[i]) // a decoded value always encodes
		m = fmt.Appendf(m, "%s %.6x\n", p, sha256.Sum256(enc))
		if level < depth {
			m = walk(m, p, vals[i], level+1)
		}
	}
	return m
}
