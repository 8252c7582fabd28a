package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// TestServeWithForcedMisses drives a run whose TS deadline is forced to
// 1µs so every delivery misses, with the telemetry server live: the
// attribution must record the misses, the worst flow must decompose
// exactly, and the flight recorder must have captured the worst chain.
func TestServeWithForcedMisses(t *testing.T) {
	o := baseOpts()
	o.TSDeadline = sim.Microsecond
	o.serve = "127.0.0.1:0"
	net, err := run(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.Attr == nil {
		t.Fatal("run built no attribution")
	}
	top := net.Collector.TopByWorst(3)
	if len(top) == 0 {
		t.Fatal("no flows ranked")
	}
	var misses uint64
	for _, st := range top {
		if got := st.Worst.Total(); got != st.MaxLat {
			t.Fatalf("flow %d: components sum %v != worst %v", st.FlowID, got, st.MaxLat)
		}
		misses += st.DeadlineMisses
	}
	if misses == 0 {
		t.Fatal("1µs deadline forced no misses")
	}
	if dumps := net.Attr.Dumps(); len(dumps) == 0 || len(dumps[len(dumps)-1].Events) == 0 {
		t.Fatal("no flight-recorder dump of the offending chain")
	}
}

// TestServeEndpointsDuringHold checks the -serve lifecycle end to end:
// runWithOutputs serves, holds, and the held server answers /metrics,
// /healthz and /flows/{id} with live content until the signal channel
// it was handed delivers.
func TestServeEndpointsDuringHold(t *testing.T) {
	sig := make(chan os.Signal, 1)
	o := baseOpts()
	o.TSDeadline = sim.Microsecond
	o.serve = "127.0.0.1:18462"
	o.signals = sig

	done := make(chan error, 1)
	go func() { done <- runWithOutputs(o) }()
	// The server is up from before the run; the probe passes once the
	// final snapshot is published, which is the state the hold keeps.
	var err error
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if err = probeServe("http://" + o.serve); err == nil {
			break
		}
	}
	sig <- syscall.SIGINT
	if runErr := <-done; runErr != nil {
		t.Fatal(runErr)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestServeGracefulShutdownOnSignal drives the real hold-and-drain path: a
// run holds with the telemetry server live, an NDJSON /events stream
// is in flight, and one SIGTERM drains everything — the stream ends
// cleanly, runWithOutputs returns nil (exit 0), and the listener stops
// accepting new connections.
func TestServeGracefulShutdownOnSignal(t *testing.T) {
	sig := make(chan os.Signal, 1)
	o := baseOpts()
	o.serve = "127.0.0.1:18463"
	o.signals = sig

	done := make(chan error, 1)
	go func() { done <- runWithOutputs(o) }()

	// Wait for the held server to come up.
	base := "http://" + o.serve
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("held server never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Attach a streaming request that only ends when the server tells
	// it to. http.Get returns once the handler has flushed headers, so
	// the stream is in flight before the signal fires.
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(chan error, 1)
	go func() {
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		streamed <- cerr
	}()

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown surfaced an error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("runWithOutputs did not return after SIGTERM")
	}
	select {
	case err := <-streamed:
		if err != nil {
			t.Fatalf("in-flight /events stream did not drain cleanly: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/events stream still open after shutdown returned")
	}
	if resp, err := http.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("listener still accepting connections after drain")
	}
}

// probeServe exercises the held server the way the CI smoke job does.
func probeServe(base string) error {
	get := func(path string) (int, string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), err
	}
	if code, body, err := get("/metrics"); err != nil || code != 200 ||
		!strings.Contains(body, "tsn_latency_component_ns") {
		return fmtErr("/metrics", code, err)
	}
	if code, body, err := get("/healthz"); err != nil || code != 200 ||
		!strings.Contains(body, `"ok"`) {
		return fmtErr("/healthz", code, err)
	}
	code, body, err := get("/flows/1")
	if err != nil || code != 200 {
		return fmtErr("/flows/1", code, err)
	}
	var fj struct {
		Count   uint64 `json:"count"`
		WorstNs int64  `json:"worst_ns"`
	}
	if err := json.Unmarshal([]byte(body), &fj); err != nil {
		return err
	}
	if fj.Count == 0 || fj.WorstNs == 0 {
		return fmtErr("/flows/1 empty breakdown", code, nil)
	}
	return nil
}

func fmtErr(what string, code int, err error) error {
	if err != nil {
		return err
	}
	return &probeError{what: what, code: code}
}

type probeError struct {
	what string
	code int
}

func (e *probeError) Error() string {
	return e.what + " failed with status " + http.StatusText(e.code)
}
