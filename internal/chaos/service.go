package chaos

// Service campaign: chaos for the TSN-as-a-Service control plane.
//
// Where RunCampaign builds an isolated simulated network per case, the
// service campaign attacks one LIVE svc.Service through its public HTTP
// API with many concurrent clients: derivation stampedes on shared
// specs, cache-coherence probes that race fresh recomputation against
// cached bodies, reconfiguration transactions with transient and
// wedged mid-commit faults armed underneath them, slow clients that
// squat on admission slots, and unique-spec bursts of cache misses. The
// service runs with the daemon's own limits: eight clients never fill
// its admission queues, so the run sheds nothing, and shedding is left
// to the admission unit tests.
//
// Three service-level oracles judge the run:
//
//   - accepted-then-lost: every 2xx POST /v1/reconfig the clients ever
//     saw must appear in the instance's committed journal with the
//     exact configuration it acknowledged, journal sequence numbers
//     must be gapless, and the final live configuration must equal the
//     journal tail, with the instance unfenced — an accepted transaction
//     can never silently vanish, and a wedge never outlives its repair.
//   - cache coherence: a cached derivation body and a freshly
//     recomputed one for the same spec must be byte-identical.
//   - queue bounded: no admission queue's depth high-water mark may
//     exceed its bound.
//
// The drive plan is a pure function of (Seed, request index), so a
// fixed seed replays the same request mix; only the interleaving varies
// and every oracle is interleaving-independent by construction.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/experiments"
	"github.com/tsnbuilder/tsnbuilder/internal/svc"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// Service-level oracle names.
const (
	// OracleAcceptedLost rejects a run where a 2xx-acknowledged
	// reconfiguration is missing from the journal, acknowledged with a
	// different configuration than committed, or no longer reflected by
	// the final live configuration, or the instance ends the run fenced.
	OracleAcceptedLost = "svc-accepted-then-lost"
	// OracleCacheCoherence rejects a run where a cached derivation and a
	// fresh recomputation of the same spec differ.
	OracleCacheCoherence = "svc-cache-coherence"
	// OracleQueueBounded rejects a run where an admission queue's depth
	// high-water mark exceeded its configured bound.
	OracleQueueBounded = "svc-queue-bounded"
)

// ServiceOptions configures one service campaign.
type ServiceOptions struct {
	// Seed fixes the drive plan (request mix, specs, deltas, faults).
	Seed uint64
	// Workload is the managed network; a zero value takes
	// svc.DefaultWorkload.
	Workload workload.Params
	// Budget bounds the campaign's wall clock; zero means unbudgeted.
	// Like the simulation campaign, it stops new requests from being
	// claimed — requests in flight finish, so verdicts never tear.
	Budget time.Duration
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// The campaign's drive: serviceRequests scripted actions over
// serviceClients concurrent clients.
const (
	serviceClients  = 8
	serviceRequests = 200
)

// ServiceSummary is a finished service campaign's outcome.
type ServiceSummary struct {
	// Planned counts the scripted actions, Executed those the drive ran
	// before its budget expired; an action is one request, or several (a
	// burst sends six, a coherence probe two).
	Planned  int `json:"planned"`
	Executed int `json:"executed"`
	// ByStatus counts responses per HTTP status code; its sum is the
	// requests answered.
	ByStatus map[int]int64 `json:"by_status"`
	// Accepted is how many reconfigurations were acknowledged with 2xx.
	Accepted int `json:"accepted"`
	// CoherenceProbes counts cached-vs-fresh byte comparisons run.
	CoherenceProbes int `json:"coherence_probes"`
	// FaultsArmed counts transient/wedge faults injected mid-campaign.
	FaultsArmed int `json:"faults_armed"`
	Verdict
}

// svcDriver is the shared mutable state of one campaign run: the
// client, the ledger (whose mutex also guards the tallies) and the
// request tallies.
type svcDriver struct {
	ctl
	ledger
	armMu sync.Mutex // held from an arm through its reconfiguration

	byStatus map[int]int64
	probes   int
	faults   int
	executed int
}

func (d *svcDriver) record(status int) {
	d.mu.Lock()
	d.byStatus[status]++
	d.mu.Unlock()
}

// specPool is the shared spec set the stampede leans on: few distinct
// specs across many concurrent clients maximizes singleflight pressure.
func specPool(seed uint64) []string {
	specs := make([]string, 4)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"topology":"linear","switches":%d,"ts_flows":%d,"seed":%d}`,
			2+i%2, 4+2*i, seed)
	}
	return specs
}

func newSvcDriver(base string, timeout time.Duration) *svcDriver {
	return &svcDriver{
		ctl:      ctl{base: base, client: &http.Client{Timeout: timeout}},
		ledger:   newLedger(OracleAcceptedLost, OracleAcceptedLost, OracleAcceptedLost),
		byStatus: make(map[int]int64),
	}
}

// RunServiceCampaign builds a service, drives it with the scripted
// concurrent load, applies the service oracles and shuts it down.
func RunServiceCampaign(opts ServiceOptions) (*ServiceSummary, error) {
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s, err := svc.NewService(svc.Options{Workload: opts.Workload})
	if err != nil {
		return nil, fmt.Errorf("chaos: service build: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		<-serveDone
	}()

	d := newSvcDriver("http://"+ln.Addr().String(), 30*time.Second)
	specs := specPool(opts.Seed)
	initial := s.Instance().LiveConfig()

	ctx := context.Background()
	if opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget)
		defer cancel()
	}
	wedgeAt := serviceRequests / 2 // exactly one wedge, mid-campaign
	logf("service campaign: %d scripted actions over %d clients against %s", serviceRequests, serviceClients, d.base)
	_ = experiments.FanOutCtx(ctx, serviceClients, serviceRequests, func(i int) bool {
		rng := rand.New(rand.NewSource(int64(opts.Seed)*1_000_003 + int64(i)))
		switch {
		case i == wedgeAt:
			// The seeded atomicity bug: a commit that dies mid-apply
			// claiming rolled-back. The response must NOT be 2xx — the
			// post-commit verification catches the partial state, the
			// instance fences itself and the breaker starts tripping. No
			// other request grows a table five times, so the commit always
			// has operations to wedge.
			d.armThenReconfig(func() error { return s.Instance().Arm(1, 1, true) }, growDelta(initial, rng.Intn(3), 5))
		case i%11 == 3:
			d.coherenceProbe(specs[rng.Intn(len(specs))])
		case i%11 == 6:
			d.reconfig(randomDelta(initial, rng))
		case i%11 == 8:
			d.slowDerive(specs[rng.Intn(len(specs))])
		case i%23 == 9:
			// A transient fault the bounded retry should absorb into a 2xx.
			op := rng.Intn(2)
			d.armThenReconfig(func() error { return s.Instance().Arm(op, 1, false) }, growDelta(initial, rng.Intn(3), 2+rng.Intn(3)))
		case i%29 == 11:
			d.burst(rng)
		default:
			d.derive(strings.NewReader(specs[rng.Intn(len(specs))]), false)
		}
		d.mu.Lock()
		d.executed++
		d.mu.Unlock()
		return true
	})

	// The journal oracles run after the drive drains, so they are
	// interleaving-independent.
	if journal, live, err := d.state(); err != nil {
		d.errf("%v", err)
	} else {
		d.check(journal, live, initial, "after the drive")
	}
	if fence := s.Instance().Fenced(); fence != nil { // driving back to the tail repairs a wedge
		d.violate(d.tail, "after the drive: instance still fenced: %v", fence)
	}
	d.checkQueueBound("derive", s.Admission().Derive)
	d.checkQueueBound("reconfig", s.Admission().Reconfig)
	sum := &ServiceSummary{
		Planned:         serviceRequests,
		Executed:        d.executed,
		ByStatus:        d.byStatus,
		Accepted:        len(d.acked),
		CoherenceProbes: d.probes,
		FaultsArmed:     d.faults,
		Verdict:         d.Verdict,
	}
	logf("service campaign: %d executed, %d accepted, %d violations",
		sum.Executed, sum.Accepted, len(sum.Violations))
	return sum, nil
}

// derive POSTs a spec — fresh bypasses the cache — books the status and
// returns the body (nil on any non-200).
func (d *svcDriver) derive(spec io.Reader, fresh bool) []byte {
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/derive", spec)
	if err != nil {
		d.errf("derive request: %v", err)
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	if fresh {
		req.Header.Set("Cache-Control", "no-cache")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		d.errf("derive: %v", err)
		return nil
	}
	body, _ := io.ReadAll(resp.Body) // a torn body fails the coherence comparison
	resp.Body.Close()
	d.record(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	return body
}

// coherenceProbe compares a cached derivation against a fresh
// recomputation of the same spec: the cache-coherence oracle.
func (d *svcDriver) coherenceProbe(spec string) {
	cached := d.derive(strings.NewReader(spec), false)
	fresh := d.derive(strings.NewReader(spec), true)
	if cached == nil || fresh == nil {
		return // shed or deadline — nothing to compare
	}
	d.mu.Lock()
	d.probes++
	d.mu.Unlock()
	if !bytes.Equal(cached, fresh) {
		d.violate(OracleCacheCoherence,
			"cached body (%d bytes) != fresh body (%d bytes) for spec %s",
			len(cached), len(fresh), spec)
	}
}

// slowDerive trickles the request body in, squatting on an admission
// slot while the handler waits for bytes — the slow-client attack.
func (d *svcDriver) slowDerive(spec string) {
	pr, pw := io.Pipe()
	go func() {
		for _, half := range []string{spec[:len(spec)/2], spec[len(spec)/2:]} {
			_, _ = io.WriteString(pw, half)
			time.Sleep(50 * time.Millisecond)
		}
		pw.Close()
	}()
	d.derive(pr, false)
}

// burst fires several unique-spec derivations back to back — all cache
// misses, each holding a derive slot for a whole derivation.
func (d *svcDriver) burst(rng *rand.Rand) {
	for k := 0; k < 6; k++ {
		spec := fmt.Sprintf(`{"topology":"ring","switches":%d,"ts_flows":%d,"seed":%d}`,
			3+rng.Intn(3), 6+rng.Intn(20), rng.Int63())
		d.derive(strings.NewReader(spec), false)
	}
}

// randomDelta grows one table — grows are always valid — or, one time in
// four, asks for an implausible shrink to exercise the 409 validation
// path.
func randomDelta(initial svc.ConfigJSON, rng *rand.Rand) svc.ReconfigRequest {
	if rng.Intn(4) == 0 {
		return svc.ReconfigRequest{UnicastSize: 1}
	}
	return growDelta(initial, rng.Intn(3), 2+rng.Intn(3))
}

// reconfig POSTs a delta and books the outcome.
func (d *svcDriver) reconfig(delta svc.ReconfigRequest) {
	status, ack, err := d.postReconfig(delta)
	if status == 0 {
		d.errf("reconfig: %v", err)
		return
	}
	d.record(status)
	switch {
	case err != nil:
		d.errf("%v", err)
	case status == http.StatusOK:
		d.ack(ack)
	}
}

// armThenReconfig injects a mid-commit fault and immediately transacts
// into it. armMu keeps another client's arm from replacing this one
// before a commit has consumed it.
func (d *svcDriver) armThenReconfig(arm func() error, delta svc.ReconfigRequest) {
	d.armMu.Lock()
	defer d.armMu.Unlock()
	if err := arm(); err != nil {
		d.errf("arm fault: %v", err)
		return
	}
	d.mu.Lock()
	d.faults++
	d.mu.Unlock()
	d.reconfig(delta)
}

func (d *svcDriver) checkQueueBound(name string, q *svc.ClassQueue) {
	if hw := q.DepthHW.Value(); hw > q.MaxWait() {
		d.violate(OracleQueueBounded, "%s queue high water %d exceeded bound %d", name, hw, q.MaxWait())
	}
}
