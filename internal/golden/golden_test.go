package golden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCheck drives check against golden files in a temporary directory:
// each case pins want under name (none when want is empty), then checks
// got, under -update when update is set, and expects an error saying
// every string in errs, or none. The golden file must be rewritten
// exactly when -update is set and its content changes.
func TestCheck(t *testing.T) {
	doc := `{"runs": [{"app": "water", "metrics": {"exec_time_sec": 1.5, "msg_count": 3}}], "scale": "small"}`
	cases := []struct {
		name, want, got string
		update          bool
		errs            []string
	}{
		{name: "same.txt", want: "a\nb\n", got: "a\nb\n"},
		{name: "moved.txt", want: "a\nb\nc\nd\n", got: "a\nB\nc\nD\n",
			errs: []string{"moved.txt moved", "2 lines moved", "first at lines [2 4]", `line 2 was "b\n", is "B\n"`}},
		{name: "grown.txt", want: "a\nb\n", got: "a\nb\nc\n", errs: []string{"1 lines moved", "first at lines [3]"}},
		{name: "leaf.json", want: doc, got: strings.Replace(doc, "water", "ocean", 1),
			errs: []string{"1 JSON paths moved: runs[0].app"}},
		{name: "deep.json", want: doc, got: strings.Replace(doc, "1.5", "2.5", 1),
			errs: []string{"1 JSON paths moved: runs[0].metrics"}},
		{name: "whitespace.json", want: doc, got: strings.ReplaceAll(doc, ": ", ":"), errs: []string{"no JSON path moved"}},
		{name: "keyorder.json", want: doc, errs: []string{"no JSON path moved"},
			got: `{"scale": "small", "runs": [{"metrics": {"msg_count": 3, "exec_time_sec": 1.5}, "app": "water"}]}`},
		{name: "stream.events", want: "e1e2", got: "e1e3", errs: []string{"stream.events moved: its sha256 moved"}},
		{name: "missing.txt", got: "a\n", errs: []string{"missing.txt", "-update creates it"}},
		{name: "kept.json", want: doc, got: doc, update: true},
		{name: "updated.txt", want: "a\n", got: "b\n", update: true},
		{name: "created.json", got: doc, update: true},
	}
	defer func(d string, u bool) { dir, *update = d, u }(dir, *update)
	dir = t.TempDir()
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, c := range cases {
		path := filepath.Join(dir, fileFor(c.name))
		if c.want != "" {
			*update = true
			if err := check(c.name, []byte(c.want)); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(path, old, old); err != nil {
				t.Fatal(err)
			}
		}
		*update = c.update
		err := check(c.name, []byte(c.got))
		if (err != nil) != (len(c.errs) > 0) {
			t.Errorf("%s: error %v, want one saying %q", c.name, err, c.errs)
		}
		for _, want := range c.errs {
			if err != nil && !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not say %q", c.name, err, want)
			}
		}
		fi, statErr := os.Stat(path)
		if exists := statErr == nil; exists != (c.want != "" || c.update) {
			t.Errorf("%s: golden file exists = %v after the check", c.name, exists)
		} else if rewritten := exists && !fi.ModTime().Equal(old); rewritten != (c.update && c.want != c.got) {
			t.Errorf("%s: golden file rewritten = %v", c.name, rewritten)
		}
		if c.update {
			*update = false
			if err := check(c.name, []byte(c.got)); err != nil {
				t.Errorf("%s: after -update: %v", c.name, err)
			}
		}
	}
}

// TestRunDeletesOrphans: under -update, Run deletes a golden file that
// no row names, and keeps the rows' files.
func TestRunDeletesOrphans(t *testing.T) {
	defer func(d string, u bool) { dir, *update = d, u }(dir, *update)
	dir, *update = t.TempDir(), true
	if err := os.WriteFile(filepath.Join(dir, "orphan.txt"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := []Row{{"kept.txt", func(*testing.T) []byte { return []byte("same\n") }}}
	Run(t, rows)
	if _, err := os.Stat(filepath.Join(dir, "orphan.txt")); err == nil {
		t.Error("orphan.txt survived -update")
	}
	*update = false
	Run(t, rows)
}
