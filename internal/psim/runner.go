package psim

import (
	"fmt"
	"sync"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Partition is one shard of the simulation: its own engine plus the
// mailboxes other partitions post deliveries to it through. Inboxes
// drain in AddInbox order, which the builder fixes (cut links in
// TrunkLinks order), so the merged schedule is independent of worker
// timing. (Order only affects engine-internal seq numbers; the events
// themselves carry (time, interface prio), which fully orders them.)
type Partition struct {
	Engine *sim.Engine
	inbox  []*Mailbox
	stats  PartStats // Windows, Busy and Wait; written by the partition's worker only
}

// NewPartition wraps an engine as a partition.
func NewPartition(e *sim.Engine) *Partition { return &Partition{Engine: e} }

// AddInbox registers a mailbox whose messages this partition receives.
func (p *Partition) AddInbox(m *Mailbox) { p.inbox = append(p.inbox, m) }

// drain schedules every pending inbound message on the engine.
func (p *Partition) drain() {
	for _, m := range p.inbox {
		m.Drain()
	}
}

// barrier is a reusable N-party rendezvous. Its mutex hand-off is the
// happens-before edge the lock-free mailboxes rely on.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	phase   uint64
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all parties have arrived.
func (b *barrier) wait() {
	b.mu.Lock()
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	phase := b.phase
	for b.phase == phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// Runner steps a set of partitions through barrier-synchronized
// conservative windows, each starting at the earliest pending event.
type Runner struct {
	parts  []*Partition
	window sim.Time
	next   [][8]sim.Time // next[k][0]: partition k's earliest pending instant; a cache line each
}

// NewRunner builds a runner over the partitions with the given safe
// window (from Lookahead). A non-positive window would deadlock the
// protocol (zero progress per barrier) and panics; pass Unbounded for
// a partitioning with no cut links.
func NewRunner(parts []*Partition, window sim.Time) *Runner {
	if len(parts) == 0 {
		panic("psim: NewRunner with no partitions")
	}
	if window <= 0 {
		panic(fmt.Sprintf("psim: non-positive lookahead window %v", window))
	}
	return &Runner{parts: parts, window: window, next: make([][8]sim.Time, len(parts))}
}

// Window returns the conservative lookahead W the runner was built with.
func (r *Runner) Window() sim.Time { return r.window }

// capAdd returns min(t+d, limit) without overflowing (d > 0, limit ≥ 0).
func capAdd(t, d, limit sim.Time) sim.Time {
	if t >= limit-d {
		return limit
	}
	return t + d
}

// RunUntil advances every partition to the deadline, inclusive —
// the partitioned equivalent of sim.Engine.RunUntil. All engines must
// agree on the current instant (they do after construction, and after
// every RunUntil).
//
// Per window each worker k drains its inboxes, publishes next_k (its
// engine's earliest pending instant, Unbounded when idle), barriers (no
// engine runs until every drain is done), runs the half-open window up
// to min(other_k+W, next_k+2W, deadline) via RunBefore — other_k being
// the earliest instant any other partition holds — and barriers again
// (no drain starts until every producer is quiescent). Nothing reaches
// k sooner: a frame launched at t arrives at t+W or later, and the one
// arrival not rooted in another partition's pending event is a reply to
// k's own earliest message, a round trip after next_k (DESIGN.md §16).
// The holder of the global minimum always executes it, so idle
// simulated time costs no windows. Once that minimum is within W of the
// deadline nothing launched from here on arrives by it, and every
// worker (the test reads shared data) takes the final window:
// RunUntil(deadline), so events at exactly the deadline execute as they
// do serially, then a drain after the last barrier only so no message
// is silently lost.
func (r *Runner) RunUntil(deadline sim.Time) {
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
	for k, p := range r.parts {
		wg.Add(1)
		go func(k int, p *Partition) {
			defer wg.Done()
			mark := time.Now() // the clock is read twice per window, never per event
			for final := false; !final; {
				p.drain()
				mine := p.Engine.NextAt()
				r.next[k][0] = mine
				bar.wait()
				other := Unbounded
				for j := range r.next {
					if j != k {
						other = min(other, r.next[j][0])
					}
				}
				final = min(mine, other) > deadline-r.window
				begin := time.Now()
				if final {
					p.Engine.RunUntil(deadline)
				} else {
					limit := capAdd(other, r.window, deadline)
					p.Engine.RunBefore(capAdd(capAdd(mine, r.window, limit), r.window, limit))
				}
				p.stats.Wait += begin.Sub(mark)
				mark = time.Now()
				p.stats.Busy += mark.Sub(begin)
				p.stats.Windows++
				bar.wait()
			}
			p.drain()
			p.stats.Wait += time.Since(mark)
		}(k, p)
	}
	wg.Wait()
}

// PartStats is one partition's share of the runs so far, kept per
// window and never per event.
type PartStats struct {
	Windows    uint64        // barrier pairs stepped (the same in every partition)
	Events     uint64        // events its engine executed
	Busy, Wait time.Duration // worker time inside RunBefore/RunUntil, and the rest: barriers, drains
	Posts      uint64        // messages mailed to it
	RingHW     int           // deepest any one of its inboxes got between drains
}

// Stats returns every partition's counters, accumulated over all runs.
func (r *Runner) Stats() []PartStats {
	out := make([]PartStats, len(r.parts))
	for k, p := range r.parts {
		out[k] = p.stats
		out[k].Events = p.Engine.Executed()
		for _, m := range p.inbox {
			out[k].Posts += m.posts
			out[k].RingHW = max(out[k].RingHW, m.hw)
		}
	}
	return out
}
