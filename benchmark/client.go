package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"emp/internal/jobs"
	"emp/internal/server"
)

// result is what the client observed for one operation.
type result struct {
	Op      op
	Err     error
	Latency time.Duration // sync: send to last byte; job: submit to the done event
	Resp    *server.SolveResponse

	// Jobs only.
	Submit         time.Duration // submit to the 202
	FirstIncumbent time.Duration // submit to the first incumbent event
	Events         int           // events on the stream, the done event included
	DoneP          int           // p and H on the done event
	DoneH          float64
	WarmFrom       string
}

// newHTTPClient returns a client that never holds more than conns
// connections to the server.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends a JSON body and returns the status and the full response body.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches url and decodes a 200 response into v.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, b)
	}
	return json.Unmarshal(b, v)
}

// syncSolve sends one POST /v1/solve and times it up to the last byte.
func syncSolve(ctx context.Context, hc *http.Client, base string, o op) result {
	r := result{Op: o}
	start := time.Now()
	status, b, err := post(ctx, hc, base+"/v1/solve", o.Body)
	r.Latency = time.Since(start)
	switch {
	case err != nil:
		r.Err = err
	case status != http.StatusOK:
		r.Err = fmt.Errorf("status %d: %.300s", status, b)
	default:
		r.Resp = new(server.SolveResponse)
		if err := json.Unmarshal(b, r.Resp); err != nil {
			r.Err, r.Resp = fmt.Errorf("decoding response: %w", err), nil
		}
	}
	return r
}

// runJob submits one job, follows its NDJSON event stream to the done event,
// and fetches the stored result. Latency ends when the done event arrives;
// the result fetch is not timed.
func runJob(ctx context.Context, hc *http.Client, base string, o op) result {
	r := result{Op: o}
	start := time.Now()
	status, b, err := post(ctx, hc, base+"/v1/jobs", o.Body)
	r.Submit = time.Since(start)
	if err != nil {
		r.Err = err
		return r
	}
	if status != http.StatusAccepted {
		r.Err = fmt.Errorf("submit: status %d (want 202): %.300s", status, b)
		return r
	}
	var st server.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		r.Err = fmt.Errorf("decoding submit response: %w", err)
		return r
	}
	r.WarmFrom = st.WarmFrom
	done, err := followEvents(ctx, hc, base+"/v1/jobs/"+st.ID+"/events", start, &r)
	r.Latency = time.Since(start)
	if err != nil {
		r.Err = err
		return r
	}
	if done.State != "done" {
		r.Err = fmt.Errorf("job %s ended %q", st.ID, done.State)
		return r
	}
	r.DoneP, r.DoneH = done.P, done.H
	var final server.JobStatus
	if err := getJSON(ctx, hc, base+"/v1/jobs/"+st.ID, &final); err != nil {
		r.Err = err
		return r
	}
	if final.State != "done" || final.Result == nil {
		r.Err = fmt.Errorf("job %s status %q without a result", st.ID, final.State)
		return r
	}
	r.Resp = final.Result
	return r
}

// followEvents reads the job's NDJSON stream until the done event, recording
// the event count and the time of the first incumbent.
func followEvents(ctx context.Context, hc *http.Client, url string, start time.Time, r *result) (jobs.Event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return jobs.Event{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return jobs.Event{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Event{}, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return jobs.Event{}, fmt.Errorf("decoding event: %w", err)
		}
		r.Events++
		if ev.Type == "incumbent" && r.FirstIncumbent == 0 {
			r.FirstIncumbent = time.Since(start)
		}
		if ev.Type == "done" {
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobs.Event{}, err
	}
	return jobs.Event{}, fmt.Errorf("event stream ended without a done event")
}
