package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/svcobs"
)

// send makes one request, with trace as its X-Jade-Trace when set, and
// returns the status code, headers and body.
func send(t *testing.T, method, url, body, trace string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if trace != "" {
		req.Header.Set(svcobs.TraceHeader, trace)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// pollDone polls a job over HTTP until it is done or failed, and
// returns the last poll's status code and document.
func pollDone(t *testing.T, base, id string) (int, *serve.JobStatus) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, data := send(t, http.MethodGet, base+"/v1/jobs/"+id, "", "")
		var doc serve.JobStatus
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("poll %s = %d, not a status doc: %s", id, code, data)
		}
		if code != http.StatusOK || doc.Status == serve.StatusDone || doc.Status == serve.StatusFailed {
			return code, &doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, doc.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// envelope is what both tiers must share of an answer: a refusal's or
// the catalog's bytes; of a status document its schema, outcome and
// result, polled to the end for an accepted async job.
func envelope(t *testing.T, base string, code int, data []byte) string {
	var doc serve.JobStatus
	if json.Unmarshal(data, &doc) != nil || doc.Schema != serve.StatusSchema {
		return string(data)
	}
	if code == http.StatusAccepted {
		_, polled := pollDone(t, base, doc.ID)
		doc = *polled
	}
	return fmt.Sprintf("%s %s %s %q %s", doc.Schema, doc.Status, doc.ErrorCode, doc.Error, doc.Result)
}

// TestContractMatchesJaded sends the same requests to a jaded server
// and to jaderouter over one LocalBackend that wraps it. Both must
// answer each with the same status code, the same headers (the trace
// ID echoed or minted; only the router sets X-Jade-Backend, -Hedged and
// -Stale) and the same envelope.
func TestContractMatchesJaded(t *testing.T) {
	// table9 runs until its 100ms job deadline; the rest answer at once.
	srv := serve.New(serve.Config{Workers: 1, JobTimeout: 100 * time.Millisecond,
		Run: func(ctx context.Context, spec *serve.JobSpec, _ string) (serve.JobStatus, error) {
			if spec.Experiments[0] == "table9" {
				<-ctx.Done()
			}
			return serve.JobStatus{Result: json.RawMessage(fmt.Sprintf(`{"job":%q}`, spec.Hash()))}, nil
		}})
	// The front's JobTimeout is RequestTimeout: 1s and 100ms both
	// answer Retry-After: 1.
	rt, err := NewRouter(Config{RequestTimeout: time.Second, Health: HealthConfig{ProbeInterval: -1}}, NewLocalBackend("n1", srv))
	if err != nil {
		t.Fatal(err)
	}
	jaded := httptest.NewServer(srv)
	routed := httptest.NewServer(NewHandler(rt, testFront(t, rt, false)))
	t.Cleanup(func() {
		routed.Close()
		rt.Close()
		jaded.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	bases := map[string]string{"jaded": jaded.URL, "jaderouter": routed.URL}

	for _, row := range []struct {
		name, method, path, body, trace string
		code                            int
		routerFirst                     bool
	}{
		{"bad JSON", http.MethodPost, "/v1/jobs", `{"experiments":`, "", http.StatusBadRequest, false},
		{"unknown experiment", http.MethodPost, "/v1/jobs", `{"experiments":["table99"]}`, "", http.StatusBadRequest, false},
		{"unknown job", http.MethodGet, "/v1/jobs/job-999999", "", "", http.StatusNotFound, false},
		{"body over 1 MiB", http.MethodPost, "/v1/jobs",
			`{"experiments":["` + strings.Repeat("x", 1<<20) + `"]}`, "", http.StatusBadRequest, false},
		{"paper-scale sync", http.MethodPost, "/v1/jobs?sync=1", `{"experiments":["table1"],"scale":"paper"}`, "", http.StatusBadRequest, false},
		{"catalog", http.MethodGet, "/v1/experiments", "", "", http.StatusOK, false},
		{"trace echo", http.MethodPost, "/v1/jobs?sync=1", `{"experiments":["table2"]}`, "contract-1", http.StatusOK, false},
		{"timed-out sync job", http.MethodPost, "/v1/jobs?sync=1", `{"experiments":["table9"]}`, "", http.StatusGatewayTimeout, false},
		{"cached async, jaded first", http.MethodPost, "/v1/jobs", `{"experiments":["table2"]}`, "", http.StatusAccepted, false},
		{"cached async, jaderouter first", http.MethodPost, "/v1/jobs", `{"experiments":["table2"]}`, "", http.StatusAccepted, true},
	} {
		order := []string{"jaded", "jaderouter"}
		if row.routerFirst {
			order[0], order[1] = order[1], order[0]
		}
		var hdrs []http.Header
		var envs []string
		for _, tier := range order {
			code, hdr, data := send(t, row.method, bases[tier]+row.path, row.body, row.trace)
			if code != row.code {
				t.Errorf("%s: %s = %d %s, want %d", row.name, tier, code, data, row.code)
			}
			if id := hdr.Get(svcobs.TraceHeader); svcobs.CleanTraceID(id) == "" || (row.trace != "" && id != row.trace) {
				t.Errorf("%s: %s answered trace ID %q, want %q echoed or one minted", row.name, tier, id, row.trace)
			}
			for _, h := range []string{"Date", "Content-Length", svcobs.TraceHeader, serve.BackendHeader, serve.HedgedHeader, serve.StaleHeader} {
				hdr.Del(h)
			}
			hdrs, envs = append(hdrs, hdr), append(envs, envelope(t, bases[tier], code, data))
		}
		if !reflect.DeepEqual(hdrs[0], hdrs[1]) {
			t.Errorf("%s: %s headers %v, %s headers %v", row.name, order[0], hdrs[0], order[1], hdrs[1])
		}
		if envs[0] != envs[1] {
			t.Errorf("%s: %s answered %s\n%s answered %s", row.name, order[0], envs[0], order[1], envs[1])
		}
	}
}
