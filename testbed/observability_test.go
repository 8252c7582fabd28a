package testbed

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/obs"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// obsScenario builds an instrumented 6-switch ring whose TS flows carry
// an impossibly tight deadline, so every delivery is a miss and the
// attribution layer exercises its dump path.
func obsScenario(t *testing.T, deadline sim.Time) (*Net, []*flows.Spec, *metrics.Registry) {
	t.Helper()
	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
		topo.AttachHost(200+h, h)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count:    24,
		Period:   10 * sim.Millisecond,
		WireSize: 64,
		VID:      1,
		Hosts: func(i int) (int, int) {
			src := i % 6
			return 100 + src, 100 + (src+2)%6
		},
		Seed: 11,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i%4000)
	}
	specs = append(specs, flows.Background(50_000, ethernet.ClassRC,
		200, 102, 3000, 50*ethernet.Mbps))
	if err := core.BindPaths(topo, specs); err != nil {
		t.Fatal(err)
	}
	der, err := core.DeriveConfig(core.Scenario{Topo: topo, Flows: specs})
	if err != nil {
		t.Fatal(err)
	}
	der.Plan.Apply(specs)
	if deadline > 0 {
		for _, s := range specs {
			if s.Class == ethernet.ClassTS {
				s.Deadline = deadline
			}
		}
	}
	design, err := core.BuilderFor(der.Config, nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	net, err := Build(Options{
		Design:  design,
		Topo:    topo,
		Flows:   specs,
		Seed:    5,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, specs, reg
}

// TestAttributionExactSum is the acceptance check of the attribution
// books: for every delivered flow, the worst delivery's five components
// sum to the analyzer's measured end-to-end latency exactly, and so do
// the components summed over every delivery.
func TestAttributionExactSum(t *testing.T) {
	net, _, reg := obsScenario(t, sim.Microsecond)
	net.Run(0, 40*sim.Millisecond)

	if net.Attr == nil {
		t.Fatal("metrics are on but Attr is nil")
	}
	all := net.Collector.Delivered()
	if len(all) == 0 {
		t.Fatal("no flows delivered")
	}
	misses := uint64(0)
	for _, st := range all {
		if got := st.Worst.Total(); got != st.MaxLat {
			t.Fatalf("flow %d: worst components sum to %v, e2e latency %v — books out of balance",
				st.FlowID, got, st.MaxLat)
		}
		if mean := sim.Time(float64(st.Sum.Total()) / float64(st.Received)); mean != st.MeanLatency() {
			t.Fatalf("flow %d: component mean %v, latency mean %v", st.FlowID, mean, st.MeanLatency())
		}
		misses += st.DeadlineMisses
	}
	if misses == 0 {
		t.Fatal("1µs TS deadline produced no misses — the forcing scenario is broken")
	}

	// The worst miss left a flight-recorder capture of its flow's chain.
	dumps := net.Attr.Dumps()
	if len(dumps) == 0 {
		t.Fatal("deadline misses left no flight-recorder dump")
	}
	worst := dumps[len(dumps)-1]
	if len(worst.Events) == 0 {
		t.Fatal("worst-miss dump holds no events")
	}
	for _, ev := range worst.Events {
		if ev.FlowID != worst.FlowID {
			t.Fatalf("dump leaked foreign flow %d into flow %d's chain", ev.FlowID, worst.FlowID)
		}
	}
	if worst.Comp.Total() != worst.Lat {
		t.Fatalf("dump components %v != latency %v", worst.Comp.Total(), worst.Lat)
	}

	// Component histograms landed in the registry with per-class labels.
	snap := reg.Snapshot()
	found := false
	for _, fam := range snap.Families {
		if fam.Name == "tsn_latency_component_ns" && len(fam.Samples) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("component histogram family missing from registry")
	}
}

// TestTelemetryServerLiveUnderRace runs the simulation while HTTP
// clients hammer every endpoint from their own goroutines — the race
// detector (CI runs this under -race) proves the snapshot-publishing
// design keeps the unsynchronized hot path isolated from the server.
// The server and the clients' keep-alive connections end with the test,
// so nothing of it runs on beside the package's later tests.
func TestTelemetryServerLiveUnderRace(t *testing.T) {
	net, _, _ := obsScenario(t, sim.Microsecond)
	srv, addr, err := net.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	defer func() {
		client.CloseIdleConnections()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	base := "http://" + addr

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/healthz", "/flows", "/flightrec"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(base + path)
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	net.Run(0, 30*sim.Millisecond)
	net.Publish()
	close(stop)
	wg.Wait()

	// Final state: a flow breakdown is served and its components sum
	// exactly to the reported worst latency.
	top := net.Collector.TopByWorst(1)
	if len(top) == 0 {
		t.Fatal("no flows to query")
	}
	resp, err := client.Get(fmt.Sprintf("%s/flows/%d", base, top[0].FlowID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/flows/%d = %d", top[0].FlowID, resp.StatusCode)
	}
	var fj struct {
		Count uint64 `json:"count"`
		Worst struct {
			Prop  sim.Time `json:"prop_ns"`
			Ser   sim.Time `json:"ser_ns"`
			Queue sim.Time `json:"queue_ns"`
			Gate  sim.Time `json:"gate_ns"`
			Shape sim.Time `json:"shape_ns"`
		} `json:"worst"`
		WorstNs sim.Time `json:"worst_ns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fj); err != nil {
		t.Fatal(err)
	}
	if fj.Count == 0 {
		t.Fatal("served breakdown is empty")
	}
	sum := fj.Worst.Prop + fj.Worst.Ser + fj.Worst.Queue + fj.Worst.Gate + fj.Worst.Shape
	if sum != fj.WorstNs {
		t.Fatalf("served components sum to %v, worst_ns %v", sum, fj.WorstNs)
	}
}

// TestFlightRecorderAlwaysOn checks the recorder runs without opt-in
// flags and retains recent dataplane events.
func TestFlightRecorderAlwaysOn(t *testing.T) {
	net, _, _ := obsScenario(t, 0)
	if net.Flight == nil {
		t.Fatal("flight recorder not built")
	}
	net.Run(0, 20*sim.Millisecond)
	if net.Flight.Seq() == 0 {
		t.Fatal("flight recorder saw no events")
	}
	if c := net.Flight.Cap(); c != 1<<16 {
		t.Fatalf("flight capacity %d without EnableTrace, want %d", c, 1<<16)
	}
}

// TestDumpsIndependentOfTrace: a dump reads the newest obs.DumpWindow
// events whatever the ring's capacity, so a seeded fault run with
// deadline misses serves the same /flightrec bytes with and without
// EnableTrace — here after the traced ring has grown past the window.
func TestDumpsIndependentOfTrace(t *testing.T) {
	flightrec := func(enableTrace bool) (string, *Net) {
		topo := topology.Ring(6)
		for h := 0; h < 6; h++ {
			topo.AttachHost(100+h, h)
		}
		specs := flows.GenerateTS(flows.TSParams{
			Count: 1024, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
			Hosts: func(i int) (int, int) { return 100 + i%6, 100 + (i+3)%6 },
			Seed:  7,
		})
		for i, s := range specs {
			s.VID = uint16(1 + i)
			s.Deadline = sim.Microsecond
		}
		sw1, port := 1, 0
		sc := &faults.Scenario{Faults: []faults.Fault{
			{AtUs: 60_000, Kind: faults.KindClockStep, Switch: &sw1, StepNs: 800},
			{AtUs: 75_000, Kind: faults.KindGateClose, Switch: &sw1, Port: &port, DurationUs: 1_000},
		}}
		net := buildNet(t, topo, specs, Options{
			EnableTrace: enableTrace, Seed: 3, Metrics: metrics.New(), Faults: sc,
		})
		net.Run(0, 90*sim.Millisecond)
		rec := httptest.NewRecorder()
		obs.NewServer(net.Attr, net.Flight).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/flightrec", nil))
		return rec.Body.String(), net
	}
	plain, _ := flightrec(false)
	traced, net := flightrec(true)
	if held := net.Flight.Len(); held <= obs.DumpWindow {
		t.Fatalf("traced ring holds %d events, not more than the %d-event dump window", held, obs.DumpWindow)
	}
	if len(net.Attr.Dumps()) == 0 || len(net.Attr.EventDumps()) != 2 {
		t.Fatalf("%d miss dumps, %d fault dumps; want some and 2", len(net.Attr.Dumps()), len(net.Attr.EventDumps()))
	}
	if plain != traced {
		t.Fatalf("/flightrec differs with EnableTrace: %d bytes vs %d", len(traced), len(plain))
	}
}
