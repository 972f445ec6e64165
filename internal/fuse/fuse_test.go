package fuse

import "testing"

func TestOptionsEnabled(t *testing.T) {
	cases := []struct {
		opt  Options
		want bool
	}{
		{Options{}, false},
		{Options{MaxChain: 1, MaxWork: 1}, false},
		{Options{MaxChain: 2}, true},
		{DefaultOptions(), true},
	}
	for _, c := range cases {
		if got := c.opt.Enabled(); got != c.want {
			t.Errorf("Options%+v.Enabled() = %t, want %t", c.opt, got, c.want)
		}
	}
}
