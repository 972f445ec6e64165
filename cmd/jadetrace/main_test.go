package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad flag values exit 2 with a message instead of silently running a
// default or panicking inside a machine constructor.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range []string{
		"-level bogus",
		"-machine dash -level bogus",
		"-machine bogus",
		"-app bogus",
		"-machine dash -procs 0",
		"-machine ipsc -procs 0",
		"-machine ipsc -procs 65",
		"-undefined-flag",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 2 {
			t.Errorf("jadetrace %s: exit %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("jadetrace %s: no message on stderr", args)
		}
	}
}
