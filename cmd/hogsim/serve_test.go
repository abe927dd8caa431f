package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/sim"
	"hog/internal/snapshot"
	"hog/internal/workload"
)

// testServer warms a small pool 10 minutes into a reduced workload.
func testServer(t *testing.T) *server {
	t.Helper()
	cfg := core.HOGConfig(60, grid.ChurnStable, 7)
	sched := workload.Generate(7, workload.Config{Scale: 0.05})
	srv, err := newServer(cfg, sched, 10*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestServeStateAndSnapshot(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/state")
	if err != nil {
		t.Fatal(err)
	}
	var state stateReply
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if state.Phase != "started" {
		t.Fatalf("phase = %q, want started", state.Phase)
	}
	if state.NowS < 600 {
		t.Fatalf("now = %.0f s, want >= warm-up 600 s", state.NowS)
	}
	if state.Census.Grid == nil || state.Census.Grid.Alive == 0 {
		t.Fatalf("census reports no live nodes: %+v", state.Census.Grid)
	}

	// The downloaded snapshot must restore into the same census.
	resp, err = http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /snapshot = %d: %s", resp.StatusCode, data)
	}
	restored, err := snapshot.Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Eng.Now().Seconds(); got != state.NowS {
		t.Fatalf("restored clock %.6f s, served clock %.6f s", got, state.NowS)
	}
}

func TestServeForkDeterministicBranches(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	outage := core.ScenarioSpec{
		Name: "outage",
		Steps: []core.StepSpec{
			{Verb: "site-outage", At: 30 * sim.Second, Site: "UCSDT2", Frac: 0.9},
		},
	}
	body, _ := json.Marshal(forkRequest{Branches: []forkBranch{
		{Name: "baseline"},
		{Name: "outage", Divergence: &outage},
	}})

	fork := func() []forkReply {
		resp, err := http.Post(ts.URL+"/fork", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST /fork = %d: %s", resp.StatusCode, msg)
		}
		var reply struct {
			Branches []forkReply `json:"branches"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		return reply.Branches
	}

	first, second := fork(), fork()
	if len(first) != 2 {
		t.Fatalf("got %d branches, want 2", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("branch %q not deterministic across forks:\n%+v\n%+v",
				first[i].Name, first[i], second[i])
		}
	}
	if first[0].Fingerprint == first[1].Fingerprint {
		t.Fatalf("baseline and outage branches have identical event fingerprints %#x", first[0].Fingerprint)
	}

	// Forking must not disturb the served system.
	resp, err := http.Get(ts.URL + "/state")
	if err != nil {
		t.Fatal(err)
	}
	var state stateReply
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if state.Phase != "started" {
		t.Fatalf("after forks the served system is %q, want started", state.Phase)
	}
}

func TestServeForkRejectsBadScenario(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	bad := core.ScenarioSpec{Name: "bad", Steps: []core.StepSpec{{Verb: "no-such-verb"}}}
	body, _ := json.Marshal(forkRequest{Branches: []forkBranch{{Name: "bad", Divergence: &bad}}})
	resp, err := http.Post(ts.URL+"/fork", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /fork with unknown verb = %d (%s), want 400", resp.StatusCode, msg)
	}
}

func TestServeEventsReplay(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	// The warm-up ring replays immediately; read a few frames and check the
	// SSE shape without waiting for live traffic.
	sc := bufio.NewScanner(resp.Body)
	var events, data int
	for sc.Scan() && data < 5 {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			events++
		case strings.HasPrefix(line, "data: "):
			data++
			var e sseEvent
			if err := json.Unmarshal([]byte(line[len("data: "):]), &e); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			if e.Type == "" {
				t.Fatalf("SSE event with empty type: %q", line)
			}
		}
	}
	if events < 5 || data < 5 {
		t.Fatalf("replayed %d event lines / %d data lines, want >= 5 of each", events, data)
	}
}

// subscribeEvents opens an /events stream and reads until the replay ring
// has started flowing, proving the handler is registered and live.
func subscribeEvents(t *testing.T, ctx context.Context, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", url+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading first byte of /events: %v", err)
	}
	return resp
}

// waitSubscribers polls the subscriber count until it reaches want.
func waitSubscribers(t *testing.T, srv *server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.subscribers() != want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.subscribers(); got != want {
		t.Fatalf("subscribers = %d, want %d", got, want)
	}
}

func TestServeEventsClientReaped(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	resp := subscribeEvents(t, ctx, ts.URL)
	defer resp.Body.Close()
	waitSubscribers(t, srv, 1)

	// Drop the client. The handler must notice the dead connection and
	// deregister the subscriber instead of fanning out to it forever.
	cancel()
	waitSubscribers(t, srv, 0)
}

func TestServeShutdownDrainsSubscribers(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp := subscribeEvents(t, ctx, ts.URL)
	defer resp.Body.Close()
	waitSubscribers(t, srv, 1)

	// Graceful shutdown releases the stream from the server side: the
	// handler returns (the subscriber table empties) and the client sees
	// its stream end rather than hang.
	srv.close()
	waitSubscribers(t, srv, 0)
	if _, err := io.Copy(io.Discard, resp.Body); err != nil && err != io.EOF {
		t.Fatalf("drained stream ended with %v, want clean EOF", err)
	}
}

// post sends body to path and returns the status code and reply text.
func post(t *testing.T, url, path string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

func TestServeRejectsOversizedBodies(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	before := srv.sys.Eng.Now()
	// Valid JSON whose padding string alone exceeds the cap, so only the
	// size limit can reject it.
	body := []byte(`{"pad": "` + strings.Repeat("x", maxRequestBytes+1) + `"}`)
	for _, path := range []string{"/advance", "/fork"} {
		if code, msg := post(t, ts.URL, path, body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body = %d (%s), want 413", path, len(body), code, msg)
		}
	}
	if now := srv.sys.Eng.Now(); now != before {
		t.Fatalf("clock moved from %v to %v after rejected requests", before, now)
	}
}

func TestServeAdvanceRejectsOutOfRangeTimes(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	before := srv.sys.Eng.Now()
	for _, body := range []string{
		`{"to_s": -1}`,
		`{"by_s": -5}`,
		`{"to_s": 1e300}`,
		`{"by_s": 1e300}`,
		`{"to_s": 1e400}`,
		// In range on its own, but now + by_s overflows the clock.
		`{"by_s": 9223372036854}`,
	} {
		if code, msg := post(t, ts.URL, "/advance", []byte(body)); code != http.StatusBadRequest {
			t.Errorf("POST /advance %s = %d (%s), want 400", body, code, msg)
		}
	}
	if now := srv.sys.Eng.Now(); now != before {
		t.Fatalf("clock moved from %v to %v after rejected requests", before, now)
	}

	// A sane request still advances.
	code, msg := post(t, ts.URL, "/advance", []byte(`{"by_s": 60}`))
	if code != http.StatusOK {
		t.Fatalf("POST /advance by 60 s = %d (%s), want 200", code, msg)
	}
	if now := srv.sys.Eng.Now(); now <= before {
		t.Fatalf("clock %v did not advance past %v", now, before)
	}
}
