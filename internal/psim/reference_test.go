package psim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// referenceRunUntil is the pre-PR-16 fixed-step Runner.RunUntil, kept
// verbatim as the oracle for TestRunnerMatchesReference: every window
// is the next W of simulated time, whether or not any partition has an
// event in it.
func referenceRunUntil(r *Runner, deadline sim.Time) {
	start := r.parts[0].Engine.Now()
	for _, p := range r.parts[1:] {
		if p.Engine.Now() != start {
			panic(fmt.Sprintf("psim: partitions disagree on now (%v vs %v)", p.Engine.Now(), start))
		}
	}
	if deadline < start {
		panic(fmt.Sprintf("psim: RunUntil(%v) before now %v", deadline, start))
	}
	bar := newBarrier(len(r.parts))
	var wg sync.WaitGroup
	for _, p := range r.parts {
		wg.Add(1)
		go func(p *Partition) {
			defer wg.Done()
			t := start
			for {
				p.drain()
				bar.wait()
				if deadline-t < r.window {
					p.Engine.RunUntil(deadline)
					bar.wait()
					p.drain()
					return
				}
				limit := t + r.window
				p.Engine.RunBefore(limit)
				t = limit
				bar.wait()
			}
		}(p)
	}
	wg.Wait()
}

// logEntry is one executed model event: when, and which.
type logEntry struct {
	at sim.Time
	id uint32
}

// modelPart is one partition of the random model: periodic local ticks
// with occasional long idle gaps, and receive handlers that reply or
// forward after a random think time. Every random draw comes from the
// partition's own stream, consumed in execution order, so the model is
// a function of the seed as long as the runner executes each
// partition's events in the right order — which is what the test
// checks.
type modelPart struct {
	k      int
	eng    *sim.Engine
	rng    *sim.Rand
	w      sim.Time
	out    []*modelLink
	log    []logEntry
	nextID uint32
}

// modelLink is one directed cut: a mailbox and the receiving
// "interface", which knows the link back to the sender.
type modelLink struct {
	box  *Mailbox
	to   *modelPart
	prio uint64
	back *modelLink
}

func (l *modelLink) ScheduleRemoteDelivery(f *ethernet.Frame, at, wire sim.Time) {
	l.to.eng.AtPrio(at, l.prio, "rx", func(*sim.Engine) { l.to.receive(l, f) })
}

func (p *modelPart) id() uint32 {
	p.nextID++
	return uint32(p.k)<<24 | p.nextID
}

// send mails a message with ttl hops left; half of them arrive exactly
// one window later, the tightest the protocol admits.
func (p *modelPart) send(l *modelLink, ttl uint32) {
	extra := sim.Time(0)
	if p.rng.Intn(2) == 0 {
		extra = sim.Time(p.rng.Int63n(int64(2 * p.w)))
	}
	l.box.Post(Message{To: l, Frame: &ethernet.Frame{FlowID: p.id(), Seq: ttl}, At: p.eng.Now() + p.w + extra, Wire: 1})
}

func (p *modelPart) receive(l *modelLink, f *ethernet.Frame) {
	p.log = append(p.log, logEntry{p.eng.Now(), f.FlowID})
	if f.Seq == 0 {
		return
	}
	var via *modelLink
	switch p.rng.Intn(4) {
	case 0:
		return
	case 1, 2:
		via = l.back
	default:
		via = p.out[p.rng.Intn(len(p.out))]
	}
	think := sim.Time(p.rng.Int63n(int64(3*p.w) + 1))
	if think == 0 {
		p.send(via, f.Seq-1)
		return
	}
	ttl := f.Seq - 1
	p.eng.After(think, "think", func(*sim.Engine) {
		p.log = append(p.log, logEntry{p.eng.Now(), p.id()})
		p.send(via, ttl)
	})
}

func (p *modelPart) tick(*sim.Engine) {
	p.log = append(p.log, logEntry{p.eng.Now(), p.id()})
	if p.rng.Intn(3) > 0 {
		p.send(p.out[p.rng.Intn(len(p.out))], 3)
	}
	var gap sim.Time
	switch r := p.rng.Intn(40); {
	case r < 30:
		gap = 1 + sim.Time(p.rng.Int63n(int64(2*p.w)))
	case r < 39:
		gap = p.w + sim.Time(p.rng.Int63n(int64(50*p.w)))
	default: // an idle gap of 10³–10⁶ W
		gap = p.w
		for e := 3 + p.rng.Intn(4); e > 0; e-- {
			gap *= 10
		}
		gap += sim.Time(p.rng.Int63n(int64(p.w)))
	}
	p.eng.After(gap, "tick", p.tick)
}

// buildModel builds the seeded model: 2–5 partitions, cuts on a ring or
// between all pairs, a window of 50–500 ns.
func buildModel(seed uint64) (*Runner, []*modelPart) {
	rng := sim.NewRand(seed)
	n := 2 + rng.Intn(4)
	allPairs := rng.Intn(2) == 0
	w := sim.Time(50 + rng.Intn(451))
	parts := make([]*modelPart, n)
	ps := make([]*Partition, n)
	for k := range parts {
		parts[k] = &modelPart{k: k, eng: sim.NewEngine(), rng: sim.NewRand(seed*31 + uint64(k)), w: w}
		ps[k] = NewPartition(parts[k].eng)
	}
	prio := uint64(0)
	link := func(a, b int) *modelLink {
		prio++
		l := &modelLink{box: NewMailbox(2), to: parts[b], prio: prio}
		parts[a].out = append(parts[a].out, l)
		ps[b].AddInbox(l.box)
		return l
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if allPairs || b == a+1 || (a == 0 && b == n-1) {
				ab, ba := link(a, b), link(b, a)
				ab.back, ba.back = ba, ab
			}
		}
	}
	for _, p := range parts {
		p.eng.At(sim.Time(p.rng.Int63n(int64(4*w))), "tick", p.tick)
	}
	return NewRunner(ps, w), parts
}

// TestRunnerMatchesReference runs seeded random models through the
// event-stepped runner and through the kept fixed-step loop and
// requires every partition to execute the same (time, id) sequence and
// end on the same clock. Each model runs as two spans: the first
// deadline lands exactly on an event in every partition (which must
// execute, and whose message must survive into the second span), the
// second inside a quiet or busy stretch wherever the seed puts it.
func TestRunnerMatchesReference(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		run := func(runUntil func(*Runner, sim.Time)) (logs [][]logEntry, clocks []sim.Time, r *Runner) {
			r, parts := buildModel(seed)
			rng := sim.NewRand(seed ^ 0xdead)
			first := r.Window() * sim.Time(10_000+rng.Intn(10_000))
			second := first + r.Window()*sim.Time(1+rng.Intn(20_000)) + sim.Time(rng.Intn(int(r.Window())))
			for _, p := range parts {
				p := p
				p.eng.At(first, "on-deadline", func(*sim.Engine) {
					p.log = append(p.log, logEntry{p.eng.Now(), p.id()})
					p.send(p.out[0], 2)
				})
			}
			for _, deadline := range []sim.Time{first, second} {
				runUntil(r, deadline)
				for _, p := range parts {
					clocks = append(clocks, p.eng.Now())
				}
			}
			for _, p := range parts {
				logs = append(logs, p.log)
			}
			return logs, clocks, r
		}
		got, gotClocks, r := run((*Runner).RunUntil)
		want, wantClocks, _ := run(referenceRunUntil)
		if !reflect.DeepEqual(gotClocks, wantClocks) {
			t.Fatalf("seed %d: clocks after each span %v, reference %v", seed, gotClocks, wantClocks)
		}
		events := 0
		for k := range want {
			events += len(want[k])
			if !reflect.DeepEqual(got[k], want[k]) {
				i := 0
				for i < len(got[k]) && i < len(want[k]) && got[k][i] == want[k][i] {
					i++
				}
				t.Fatalf("seed %d partition %d: %d events, reference %d; first difference at #%d",
					seed, k, len(got[k]), len(want[k]), i)
			}
		}
		if events < 100 {
			t.Fatalf("seed %d: model executed only %d events", seed, events)
		}
		if windows := r.Stats()[0].Windows; windows > uint64(events)+2 {
			t.Errorf("seed %d: %d windows for %d events — a window must contain the earliest pending event", seed, windows, events)
		}
	}
}
