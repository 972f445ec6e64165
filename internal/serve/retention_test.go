package serve

import (
	"context"
	"fmt"
	"net/http"
	"testing"
)

// getTraceCode GETs a job's span-tree endpoint and returns the status.
func getTraceCode(t *testing.T, url, id string) int {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestJobRetentionEvictsOldestTerminal: with JobRetention 2, the third
// terminal job evicts the first from both the status and the trace
// endpoints, and the two most recent stay pollable.
func TestJobRetentionEvictsOldestTerminal(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobRetention: 2, Spans: true}, fakeRunner)
	var ids []string
	for _, exp := range []string{"table1", "table2", "table3"} {
		code, doc, _ := submit(t, ts.URL, fmt.Sprintf(`{"experiments":[%q]}`, exp), true)
		if code != http.StatusOK || doc.Status != StatusDone {
			t.Fatalf("%s: %d/%s (%s), want 200/done", exp, code, doc.Status, doc.Error)
		}
		ids = append(ids, doc.ID)
	}
	for i, id := range ids {
		want := http.StatusOK
		if i == 0 {
			want = http.StatusNotFound
		}
		if code, _ := getStatus(t, ts.URL, id); code != want {
			t.Errorf("GET /v1/jobs/%s = %d, want %d", id, code, want)
		}
		if code := getTraceCode(t, ts.URL, id); code != want {
			t.Errorf("GET /v1/jobs/%s/trace = %d, want %d", id, code, want)
		}
	}
}

// TestJobRetentionKeepsRunningJobs: retention bounds terminal jobs
// only, so a job held running stays pollable however many others
// finish around it, and is pollable once it finishes too.
func TestJobRetentionKeepsRunningJobs(t *testing.T) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	runFn := func(ctx context.Context, spec *JobSpec, _ string) (JobStatus, error) {
		if spec.Experiments[0] == "table1" {
			started <- struct{}{}
			<-release
		}
		return fakeRunner(ctx, spec, "")
	}
	_, ts := newTestServer(t, Config{Workers: 2, JobRetention: 2}, runFn)

	code, held, _ := submit(t, ts.URL, `{"experiments":["table1"]}`, false)
	if code != http.StatusAccepted {
		t.Fatalf("held submit = %d, want 202", code)
	}
	<-started
	for i := 2; i <= 9; i++ {
		code, doc, _ := submit(t, ts.URL, fmt.Sprintf(`{"experiments":["table%d"]}`, i), true)
		if code != http.StatusOK || doc.Status != StatusDone {
			t.Fatalf("table%d: %d/%s (%s), want 200/done", i, code, doc.Status, doc.Error)
		}
		if code, doc := getStatus(t, ts.URL, held.ID); code != http.StatusOK || doc.Status != StatusRunning {
			t.Fatalf("after table%d: held job = %d/%s, want 200/running", i, code, doc.Status)
		}
	}
	close(release)
	for {
		code, doc := getStatus(t, ts.URL, held.ID)
		if code != http.StatusOK {
			t.Fatalf("held job after release = %d, want 200", code)
		}
		if doc.Status == StatusDone {
			break
		}
	}
}
