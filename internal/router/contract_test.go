package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// send makes one request and returns its status code and body.
func send(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
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
	return resp.StatusCode, data
}

// pollDone polls a job over HTTP until it is done, and returns the
// last poll's status code and document.
func pollDone(t *testing.T, base, id string) (int, *serve.JobStatus) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, data := send(t, http.MethodGet, base+"/v1/jobs/"+id, "")
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

// TestContractMatchesJaded sends the same requests to a jaded server
// and to a router over one LocalBackend that wraps it. Both must answer
// each with the same status code, every refusal with the same
// {"error": …} envelope, and the catalog with the same bytes.
func TestContractMatchesJaded(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	rt, err := NewRouter(Config{Health: HealthConfig{ProbeInterval: -1}}, NewLocalBackend("n1", srv))
	if err != nil {
		t.Fatal(err)
	}
	jaded := httptest.NewServer(srv)
	routed := httptest.NewServer(NewHandler(rt))
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
		name, method, path, body string
		code                     int
	}{
		{"bad JSON", http.MethodPost, "/v1/jobs", `{"experiments":`, http.StatusBadRequest},
		{"unknown experiment", http.MethodPost, "/v1/jobs", `{"experiments":["table99"]}`, http.StatusBadRequest},
		{"unknown job", http.MethodGet, "/v1/jobs/job-999999", "", http.StatusNotFound},
		{"body over 1 MiB", http.MethodPost, "/v1/jobs",
			`{"experiments":["` + strings.Repeat("x", 1<<20) + `"]}`, http.StatusBadRequest},
	} {
		var bodies [][]byte
		for _, name := range []string{"jaded", "jaderouter"} {
			code, data := send(t, row.method, bases[name]+row.path, row.body)
			var envelope struct {
				Error string `json:"error"`
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if code != row.code || dec.Decode(&envelope) != nil || envelope.Error == "" {
				t.Errorf("%s: %s = %d %s, want %d and an error envelope", row.name, name, code, data, row.code)
			}
			bodies = append(bodies, data)
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("%s: jaded answered %s, jaderouter %s", row.name, bodies[0], bodies[1])
		}
	}

	// An async submit answers 202 and its poll the finished job. jaded
	// goes first, so the router's copy is a result-cache hit on the same
	// server and must carry the same bytes.
	var results []json.RawMessage
	for _, name := range []string{"jaded", "jaderouter"} {
		base := bases[name]
		code, data := send(t, http.MethodPost, base+"/v1/jobs", `{"experiments":["table1"]}`)
		var doc serve.JobStatus
		if err := json.Unmarshal(data, &doc); err != nil || code != http.StatusAccepted || doc.ID == "" {
			t.Fatalf("%s: async submit = %d %s, want 202 and a job ID", name, code, data)
		}
		code, polled := pollDone(t, base, doc.ID)
		if code != http.StatusOK || polled.Status != serve.StatusDone {
			t.Fatalf("%s: poll = %d %s (%s), want 200 done", name, code, polled.Status, polled.Error)
		}
		results = append(results, polled.Result)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Error("jaded and jaderouter returned different result bytes for one spec")
	}

	_, want := send(t, http.MethodGet, jaded.URL+"/v1/experiments", "")
	if code, got := send(t, http.MethodGet, routed.URL+"/v1/experiments", ""); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("router catalog = %d, differs from jaded's:\n%s\nwant:\n%s", code, got, want)
	}
}
