package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"emp/internal/census"
	"emp/internal/fact"
	"emp/internal/solvecache"
)

func doJSON(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]json.RawMessage
	if rec.Body.Len() > 0 && rec.Body.Bytes()[0] == '{' {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("bad JSON response: %v\n%s", err, rec.Body.String())
		}
	}
	return rec, out
}

// decodeError unwraps the JSON error envelope every error path must emit.
func decodeError(t *testing.T, rec *httptest.ResponseRecorder) errorDetail {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("response is not an error envelope: %v\n%s", err, rec.Body.String())
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error envelope missing code or message: %s", rec.Body.String())
	}
	return env.Error
}

func TestHealth(t *testing.T) {
	rec, out := doJSON(t, Handler(), http.MethodGet, "/v1/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if string(out["status"]) != `"ok"` {
		t.Errorf("body = %s", rec.Body.String())
	}
}

func TestDatasets(t *testing.T) {
	rec, _ := doJSON(t, Handler(), http.MethodGet, "/v1/datasets", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var entries []map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 12 {
		t.Errorf("got %d datasets", len(entries))
	}
	rec, _ = doJSON(t, Handler(), http.MethodPost, "/v1/datasets", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/datasets status = %d", rec.Code)
	}
}

func TestSolveNamed(t *testing.T) {
	body := `{"named":"1k","scale":0.1,"constraints":"SUM(TOTALPOP) >= 20000","options":{"seed":1,"skip_local_search":true}}`
	rec, _ := doJSON(t, Handler(), http.MethodPost, "/v1/solve", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.P < 1 {
		t.Errorf("p = %d", resp.P)
	}
	if len(resp.Assignment) != 101 {
		t.Errorf("assignment length = %d", len(resp.Assignment))
	}
	if resp.SeedAreas <= 0 {
		t.Error("seed areas missing")
	}
}

func TestSolveInlineDataset(t *testing.T) {
	ds, err := census.Generate(census.Options{Name: "inline", Areas: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var dsBuf bytes.Buffer
	if err := ds.WriteJSON(&dsBuf); err != nil {
		t.Fatal(err)
	}
	reqBody, err := json.Marshal(map[string]interface{}{
		"dataset":     json.RawMessage(dsBuf.Bytes()),
		"constraints": "SUM(TOTALPOP) >= 15000; COUNT(*) <= 20",
		"options":     map[string]interface{}{"seed": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := doJSON(t, Handler(), http.MethodPost, "/v1/solve", string(reqBody))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Assignment) != 60 {
		t.Errorf("assignment length = %d", len(resp.Assignment))
	}
}

// TestSolveRejectsWrappedAdjacencyID: the id 4294967296 is 0 once
// truncated to int32, which would make this adjacency the valid
// [[1],[0],[3],[2]] and let the solve answer 200 on a dataset nobody sent.
func TestSolveRejectsWrappedAdjacencyID(t *testing.T) {
	body := `{"dataset":{"name":"wrap","n":4,"adjacency":[[1],[4294967296],[3],[2]],
	  "attributes":{"TOTALPOP":[1,2,3,4]},"attr_order":["TOTALPOP"],"dissimilarity":"TOTALPOP"},
	  "constraints":"SUM(TOTALPOP) >= 1","options":{"seed":1}}`
	rec, _ := doJSON(t, Handler(), http.MethodPost, "/v1/solve", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if detail := decodeError(t, rec); !strings.Contains(detail.Message, "out-of-range neighbor 4294967296") {
		t.Errorf("message = %q, want the out-of-range neighbor named", detail.Message)
	}
}

// zeroWeightBody cuts a 4-area inline dataset in two. Its dissimilarity
// gaps overflow to +Inf, so every edge of the cut planner's similarity
// graph weighs 0; the planner used to pick no merge target for a piece
// and index a label slice at -1, ending the process.
const zeroWeightBody = `{"dataset":{"name":"zw","n":4,"adjacency":[[2],[2,3],[0,1],[1]],
  "attributes":{"D":[1e308,1e308,-1e308,-1e308]},"attr_order":["D"],"dissimilarity":"D"},
  "constraints":"COUNT(*) >= 1","options":{"seed":1,"cut_shards":2}}`

// TestSolveZeroWeightCut: the zero-weight cut answers 200 on /v1/solve and
// as a job, and the service keeps serving after both.
func TestSolveZeroWeightCut(t *testing.T) {
	h, _ := newServingHandler(t, Config{})
	rec := postSolve(h, zeroWeightBody, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	var got SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.P != 4 {
		t.Errorf("p = %d, want 4 (one region per area)", got.P)
	}

	// A fresh service, so the job runs instead of finding the answer cached.
	hj, _ := newServingHandler(t, Config{})
	sub, st := postJob(t, hj, zeroWeightBody)
	if sub.Code != http.StatusAccepted {
		t.Fatalf("job submit status = %d, want 202: %s", sub.Code, sub.Body.String())
	}
	if final := waitJobTerminal(t, hj, st.ID); final.State != "done" || final.P != 4 {
		t.Fatalf("job = %+v, want done with p 4", final)
	}

	for _, handler := range []http.Handler{h, hj} {
		if rec := postSolve(handler, jobBody, "", nil); rec.Code != http.StatusOK {
			t.Fatalf("solve afterwards: status = %d, want 200: %s", rec.Code, rec.Body.String())
		}
	}
}

// TestSolveParallelIterations: multi-start iterations fan out on the
// service's worker pool, and the answer must equal a one-slot library solve.
func TestSolveParallelIterations(t *testing.T) {
	body := `{"named":"1k","scale":0.08,"constraints":"SUM(TOTALPOP) >= 25000",
	  "options":{"seed":1,"iterations":3,"skip_local_search":true}}`
	rec, _ := doJSON(t, Handler(), http.MethodPost, "/v1/solve", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var got SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	ds, err := census.Scaled("1k", 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := fact.Solve(ds, mustSet(t, "SUM(TOTALPOP) >= 25000"),
		fact.Config{Seed: 1, Iterations: 3, SkipLocalSearch: true, Pool: solvecache.NewPool(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got.P != seq.P || got.HeteroAfter != seq.HeteroAfter {
		t.Errorf("pooled result differs from the one-slot solve: %d/%g vs %d/%g", got.P, got.HeteroAfter, seq.P, seq.HeteroAfter)
	}
}

// TestSolveAssignmentMatchesLibrary pins the wire assignment against the
// library: for a component-sharded solve (the 3-component 20k) and a 4-way
// cut solve, the response's "assignment" equals fact.WarmAssignment of an
// in-process fact.Solve on the same dataset and config.
func TestSolveAssignmentMatchesLibrary(t *testing.T) {
	const constraints = "SUM(TOTALPOP) >= 25000"
	for _, c := range []struct {
		named string
		scale float64
		opts  SolveOptions
	}{
		{"20k", 0.1, SolveOptions{Seed: 3}},
		{"2k", 0.5, SolveOptions{Seed: 3, CutShards: 4}},
	} {
		body, err := json.Marshal(map[string]any{
			"named": c.named, "scale": c.scale, "constraints": constraints, "options": c.opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := doJSON(t, Handler(), http.MethodPost, "/v1/solve", string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", c.named, rec.Code, rec.Body.String())
		}
		var got SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		ds, err := census.Scaled(c.named, c.scale, c.opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := c.opts.Config()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fact.Solve(ds, mustSet(t, constraints), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want.Shards < 2 && want.CutShards < 2 {
			t.Fatalf("%s: library solve ran unsharded (shards %d, cut shards %d)", c.named, want.Shards, want.CutShards)
		}
		if !reflect.DeepEqual(got.Assignment, fact.WarmAssignment(want.Partition)) {
			t.Errorf("%s: wire assignment differs from the library's (p %d vs %d)", c.named, got.P, want.P)
		}
	}
}

// TestSolveRejectsUnknownOptions: a key inside "options" that names no
// option (a typo, or a retired knob such as a worker count or the
// local_search selector, whatever its value) is a 400 whose message names the
// key on both solve paths, never a silently different solve.
func TestSolveRejectsUnknownOptions(t *testing.T) {
	for _, opt := range []struct{ key, value string }{
		{"cut_shard", "1"}, {"shard_off", "1"}, {"parallelism", "1"}, {"kernel_off", "1"},
		{"shard_workers", "1"}, {"cut_workers", "1"},
		{"local_search", `"tabu"`}, {"local_search", `"anneal"`},
	} {
		body := `{"named":"1k","scale":0.08,"constraints":"SUM(TOTALPOP) >= 25000","options":{"seed":1,"` + opt.key + `":` + opt.value + `}}`
		for _, path := range []string{"/v1/solve", "/v1/jobs"} {
			rec, _ := doJSON(t, Handler(), http.MethodPost, path, body)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s=%s: status = %d, want 400: %s", path, opt.key, opt.value, rec.Code, rec.Body.String())
				continue
			}
			if detail := decodeError(t, rec); !strings.Contains(detail.Message, `"`+opt.key+`"`) {
				t.Errorf("%s %s: message %q does not name the key", path, opt.key, detail.Message)
			}
		}
	}
}

func TestSolveInfeasible(t *testing.T) {
	body := `{"named":"1k","scale":0.08,"constraints":"SUM(TOTALPOP) >= 1000000000"}`
	rec, _ := doJSON(t, Handler(), http.MethodPost, "/v1/solve", body)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", rec.Code)
	}
	detail := decodeError(t, rec)
	if detail.Code != "infeasible" {
		t.Errorf("error code = %q, want infeasible", detail.Code)
	}
	if len(detail.Reasons) == 0 {
		t.Error("reasons missing")
	}
}

func TestSolveBadRequests(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"no dataset", `{"constraints":"SUM(TOTALPOP) >= 1"}`},
		{"both sources", `{"named":"1k","dataset":{},"constraints":"SUM(TOTALPOP) >= 1"}`},
		{"unknown named", `{"named":"3k","constraints":"SUM(TOTALPOP) >= 1"}`},
		{"bad constraints", `{"named":"1k","scale":0.05,"constraints":"MEDIAN(X) > 1"}`},
		{"empty constraints", `{"named":"1k","scale":0.05,"constraints":"  "}`},
		{"unknown attribute", `{"named":"1k","scale":0.05,"constraints":"SUM(GHOST) >= 1"}`},
		{"bad local search", `{"named":"1k","scale":0.05,"constraints":"SUM(TOTALPOP) >= 1","options":{"local_search":"genetic"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, _ := doJSON(t, Handler(), http.MethodPost, "/v1/solve", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("status = %d: %s", rec.Code, rec.Body.String())
			}
			if detail := decodeError(t, rec); detail.Code != "bad_request" {
				t.Errorf("error code = %q, want bad_request", detail.Code)
			}
		})
	}
	rec, _ := doJSON(t, Handler(), http.MethodGet, "/v1/solve", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve status = %d", rec.Code)
	}
}
