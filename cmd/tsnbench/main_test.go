package main

import (
	"io"
	"net/http"
	"os"
	"syscall"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/experiments"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
)

func tiny() experiments.Params {
	return experiments.Params{TSFlows: 32, Duration: 10_000_000, Seed: 42}
}

func TestRunCheapExperiments(t *testing.T) {
	for _, exp := range []string{"table1", "table3", "sync", "itp", "platform"} {
		if err := run(io.Discard, exp, tiny()); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are slow")
	}
	for _, exp := range []string{"fig7a", "fig7c", "qos", "tas", "sms"} {
		if err := run(io.Discard, exp, tiny()); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "nope", tiny()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestServeTelemetryGracefulDrain checks the -serve exit path: the
// server answers /metrics while held, one signal on the channel handed
// to Hold shuts it down cleanly, and the listener stops accepting
// afterwards.
func TestServeTelemetryGracefulDrain(t *testing.T) {
	srv, addr, err := serveTelemetry("127.0.0.1:0", metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics = %d before drain", resp.StatusCode)
	}
	sig := make(chan os.Signal, 1)
	sig <- syscall.SIGINT
	if err := srv.Hold("telemetry", sig, telemetryDrainTimeout); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if resp, err := http.Get(base + "/metrics"); err == nil {
		resp.Body.Close()
		t.Fatal("listener still accepting connections after drain")
	}
}
