package testbed

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// streamedEvent is one NDJSON line of /events.
type streamedEvent struct {
	At     sim.Time `json:"at_ns"`
	Kind   string   `json:"kind"`
	Switch int      `json:"switch"`
	Port   int      `json:"port"`
	Queue  int      `json:"queue"`
	Flow   uint32   `json:"flow"`
	Seq    uint32   `json:"seq"`
	Detail string   `json:"detail"`
}

// eventStream is one /events client: it decodes lines until its
// context ends.
type eventStream struct {
	mu     sync.Mutex
	events []streamedEvent
	done   chan struct{}
}

func (st *eventStream) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.events)
}

func subscribe(ctx context.Context, t *testing.T, url string) *eventStream {
	t.Helper()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	st := &eventStream{done: make(chan struct{})}
	go func() {
		defer close(st.done)
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var ev streamedEvent
			if dec.Decode(&ev) != nil {
				return // the client went away
			}
			st.mu.Lock()
			st.events = append(st.events, ev)
			st.mu.Unlock()
		}
	}()
	return st
}

// TestServeEventStreamMatchesFlight streams /events from Net.Serve to
// two clients while Net.Run records — CI runs it under -race, which
// proves the handlers read only what the simulation thread published,
// never the live ring — and, in a second run, to one client that first
// subscribes after the final Publish, as a client of tsnsim -serve's
// hold does. Each run records fewer events than the ring holds, so a
// stream has no gap: its k-th line is ordinal k, the ordinals rise one
// by one, and each line equals the final ring's entry of that ordinal.
func TestServeEventStreamMatchesFlight(t *testing.T) {
	for _, during := range []int{2, 0} {
		streamRun(t, during)
	}
}

// streamRun serves one run with during clients subscribed before it
// and one more after its final Publish, and checks every stream.
func streamRun(t *testing.T, during int) {
	wl, err := workload.Build(withBackground(workload.Params{Topology: "ring", Switches: 6, TSFlows: 64, Hops: 3,
		WireSize: 64, SlotUs: 65, Seed: 42}, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	net, err := Build(Options{Design: wl.Design, Topo: wl.Topo, Flows: wl.Specs, Seed: 42,
		Metrics: metrics.New(), EnableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := net.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var streams []*eventStream
	for range during {
		streams = append(streams, subscribe(ctx, t, "http://"+addr+"/events"))
	}

	net.Run(0, 40*sim.Millisecond)
	srv.Publish(net.Metrics.Snapshot(), net.Collector)
	total := net.Flight.Seq()
	if total == 0 || total >= uint64(net.Flight.Cap()) {
		t.Fatalf("the run recorded %d events into a ring of %d: want some, and no wrap", total, net.Flight.Cap())
	}
	streams = append(streams, subscribe(ctx, t, "http://"+addr+"/events"))
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		short := false
		for _, st := range streams {
			short = short || uint64(st.len()) < total
		}
		if !short {
			break
		}
	}
	cancel()
	final := net.Flight.Snapshot(net.Flight.Cap())
	for c, st := range streams {
		<-st.done
		if uint64(len(st.events)) != total {
			t.Fatalf("run with %d early clients: client %d streamed %d events, the run recorded %d", during, c, len(st.events), total)
		}
		for k, ev := range st.events {
			want := final[k]
			got := streamedEvent{At: want.At, Kind: want.Kind.String(), Switch: want.Switch, Port: want.Port,
				Queue: want.Queue, Flow: want.FlowID, Seq: want.Seq, Detail: want.Detail}
			if ev != got {
				t.Fatalf("run with %d early clients: client %d: streamed event %d is %+v, the ring's ordinal %d is %+v", during, c, k, ev, k, got)
			}
		}
	}
}
