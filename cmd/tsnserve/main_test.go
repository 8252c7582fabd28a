package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freePort grabs an ephemeral port and releases it for the daemon.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// /readyz, not /healthz: a durable daemon is healthy while it still
		// replays its journal, and answers 503 "recovering" to the API.
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("daemon never became ready")
}

// TestServeAndSIGTERMDrain boots the daemon on an ephemeral port,
// exercises the API, then delivers the (swapped) SIGTERM and checks the
// run loop drains and returns nil — the graceful-exit contract.
func TestServeAndSIGTERMDrain(t *testing.T) {
	addr := freePort(t)
	sig := make(chan os.Signal, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{"-addr", addr, "-switches", "2", "-flows", "4"}, sig)
	}()
	base := "http://" + addr
	waitReady(t, base)

	resp, err := http.Post(base+"/v1/derive", "application/json",
		strings.NewReader(`{"topology":"linear","switches":3,"ts_flows":8}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("derive: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Post(base+"/v1/reconfig", "application/json",
		strings.NewReader(`{"meter_size":64}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reconfig: %d %s", resp.StatusCode, body)
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain within 30s of SIGTERM")
	}
	// The listener is actually gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after drain")
	}
}

// TestStateDirSurvivesRestart is the README quickstart as a test: boot
// with -state-dir, commit a reconfiguration, drain on SIGTERM, boot a
// second life on the same directory and find the journal intact and
// the committed configuration back in force.
func TestStateDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	life := func(check func(base string)) {
		addr := freePort(t)
		sig := make(chan os.Signal, 1)
		runErr := make(chan error, 1)
		go func() {
			runErr <- run([]string{"-addr", addr, "-switches", "2", "-flows", "4", "-state-dir", dir}, sig)
		}()
		waitReady(t, "http://"+addr)
		check("http://" + addr)
		sig <- syscall.SIGTERM
		select {
		case err := <-runErr:
			if err != nil {
				t.Fatalf("run after SIGTERM: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not drain within 30s of SIGTERM")
		}
	}

	life(func(base string) {
		resp, err := http.Post(base+"/v1/reconfig", "application/json",
			strings.NewReader(`{"meter_size":64}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reconfig: %d %s", resp.StatusCode, body)
		}
	})
	life(func(base string) {
		resp, err := http.Get(base + "/v1/journal")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"seq":1`) {
			t.Fatalf("restarted journal: %d %s", resp.StatusCode, body)
		}
		resp, err = http.Get(base + "/v1/config")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), `"meter_size":64`) {
			t.Fatalf("restarted config lost the committed meter_size: %s", body)
		}
	})
}

// TestListenFailureStopsTheInstance: when the address is taken, run
// fails after the service — control loop, and with -state-dir an open
// WAL — already exists. The error must come back and nothing of the
// service may outlive the call.
func TestListenFailureStopsTheInstance(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, extra := range [][]string{nil, {"-state-dir", t.TempDir()}} {
		args := append([]string{"-addr", ln.Addr().String(), "-switches", "2", "-flows", "4"}, extra...)
		err := run(args, make(chan os.Signal))
		if err == nil || !strings.Contains(err.Error(), "address already in use") {
			t.Fatalf("run %v on an occupied port = %v, want the listen error", extra, err)
		}
		// Close waits for the loop to signal done; give the goroutine the
		// instant it needs to actually return after that.
		stacks := make([]byte, 1<<20)
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			stacks = stacks[:runtime.Stack(stacks[:cap(stacks)], true)]
			if !bytes.Contains(stacks, []byte("svc.(*Instance).loop")) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %v returned %v but the instance control loop is still running:\n%s", extra, err, stacks)
			}
		}
	}
}

// TestChaosModeSmoke runs the service chaos campaign through the CLI
// path and expects a clean verdict.
func TestChaosModeSmoke(t *testing.T) {
	if err := run([]string{"-chaos"}, nil); err != nil {
		t.Fatalf("chaos mode: %v", err)
	}
}

func TestParseFlagsRejectsGarbage(t *testing.T) {
	if _, err := parseFlags([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	o, err := parseFlags([]string{"-addr", "127.0.0.1:1234", "-topology", "ring"})
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:1234" || o.svc.Workload.Topology != "ring" {
		t.Fatalf("flags not applied: %+v", o)
	}
}

// TestWorkloadBelowItsFloorIsAnError: a managed workload the topology
// cannot be built from fails service construction with an error naming
// the rule, and nothing listens.
func TestWorkloadBelowItsFloorIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "ring", "-switches", "2"},
		{"-flows", "0"},
	} {
		err := run(append([]string{"-addr", "127.0.0.1:0"}, args...), make(chan os.Signal))
		if err == nil || !strings.Contains(err.Error(), "workload") {
			t.Errorf("run %v = %v, want a workload error", args, err)
		}
	}
}
