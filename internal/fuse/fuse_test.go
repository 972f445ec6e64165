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

func TestCountersAccumulate(t *testing.T) {
	before := Snapshot()
	AddTasksFused(3)
	AddMsgsCoalesced(5)
	AddFusionBenefitBytes(7)
	after := Snapshot()
	if d := after.TasksFused - before.TasksFused; d != 3 {
		t.Errorf("TasksFused grew by %d, want 3", d)
	}
	if d := after.MsgsCoalesced - before.MsgsCoalesced; d != 5 {
		t.Errorf("MsgsCoalesced grew by %d, want 5", d)
	}
	if d := after.FusionBenefitBytes - before.FusionBenefitBytes; d != 7 {
		t.Errorf("FusionBenefitBytes grew by %d, want 7", d)
	}
}
