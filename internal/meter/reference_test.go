package meter

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// referenceResize is the reallocating Resize the in-place one replaced,
// kept verbatim as the oracle: fresh arrays of exactly the new capacity
// on every call, so every slot past the copied prefix is zero by
// construction.
func referenceResize(t *Table, capacity int) error {
	if capacity < 0 {
		return fmt.Errorf("meter: negative capacity %d", capacity)
	}
	if req := t.RequiredCapacity(); capacity < req {
		return fmt.Errorf("meter: cannot shrink table to %d: meter %d is configured", capacity, req-1)
	}
	meters := make([]Meter, capacity)
	inUse := make([]bool, capacity)
	copy(meters, t.meters)
	copy(inUse, t.inUse)
	t.meters, t.inUse = meters, inUse
	return nil
}

// tablePair drives the in-place table and the reference with the same
// script and compares everything observable after every step.
type tablePair struct {
	t        *testing.T
	got, ref *Table
	step     int
}

func (p *tablePair) check(what string) {
	p.t.Helper()
	p.step++
	fail := func(format string, args ...any) {
		p.t.Helper()
		p.t.Fatalf("step %d (%s): "+format, append([]any{p.step, what}, args...)...)
	}
	if g, r := p.got.Capacity(), p.ref.Capacity(); g != r {
		fail("Capacity %d, reference %d", g, r)
	}
	if g, r := used(p.got), used(p.ref); g != r {
		fail("Used %d, reference %d", g, r)
	}
	if g, r := p.got.RequiredCapacity(), p.ref.RequiredCapacity(); g != r {
		fail("RequiredCapacity %d, reference %d", g, r)
	}
	for id := -1; id <= p.ref.Capacity(); id++ {
		g, r := p.got.Get(id), p.ref.Get(id)
		if (g == nil) != (r == nil) {
			fail("Get(%d) nil-ness: %v, reference %v", id, g == nil, r == nil)
		}
		if g != nil && *g != *r {
			fail("Get(%d) = %+v, reference %+v", id, *g, *r)
		}
	}
	// Unconfigured slots are invisible through Get; the in-place table
	// must still hold zero meters there, as fresh arrays would.
	for id := range p.got.meters {
		if !p.got.inUse[id] && !p.ref.inUse[id] && p.got.meters[id] != p.ref.meters[id] {
			fail("idle slot %d holds %+v, reference %+v", id, p.got.meters[id], p.ref.meters[id])
		}
	}
}

func (p *tablePair) configure(id int, rate ethernet.Rate, burst int) {
	p.t.Helper()
	ge, re := p.got.Configure(id, rate, burst), p.ref.Configure(id, rate, burst)
	if fmt.Sprint(ge) != fmt.Sprint(re) {
		p.t.Fatalf("Configure(%d): %v, reference %v", id, ge, re)
	}
	p.check(fmt.Sprintf("Configure(%d)", id))
}

func (p *tablePair) conform(id int, now sim.Time, bytes int) {
	p.t.Helper()
	if g, r := p.got.Conform(id, now, bytes), p.ref.Conform(id, now, bytes); g != r {
		p.t.Fatalf("Conform(%d, %d, %d) = %v, reference %v", id, now, bytes, g, r)
	}
	p.check(fmt.Sprintf("Conform(%d)", id))
}

// resize reports whether the resize was accepted.
func (p *tablePair) resize(capacity int) bool {
	p.t.Helper()
	ge, re := p.got.Resize(capacity), referenceResize(p.ref, capacity)
	if fmt.Sprint(ge) != fmt.Sprint(re) {
		p.t.Fatalf("Resize(%d): %v, reference %v", capacity, ge, re)
	}
	p.check(fmt.Sprintf("Resize(%d)", capacity))
	return ge == nil
}

// remove unconfigures a meter the way a table manager would: the slot
// stops being in use, the token state stays behind.
func (p *tablePair) remove(id int) {
	p.t.Helper()
	p.got.inUse[id], p.ref.inUse[id] = false, false
	p.check(fmt.Sprintf("remove(%d)", id))
}

// TestResizeMatchesReference: resizing in place is indistinguishable
// from reallocating — capacity, occupancy, every meter's token state
// and every policing verdict, step for step.
func TestResizeMatchesReference(t *testing.T) {
	p := &tablePair{t: t, got: NewTable(16), ref: NewTable(16)}

	// Scripted prologue: the cases the random script must not miss.
	p.configure(3, ethernet.Mbps, 256)
	p.configure(12, 10*ethernet.Mbps, 1500)
	p.conform(12, 1000, 1400) // drains most of slot 12's bucket
	p.conform(12, 1001, 1400) // and records a drop
	if p.resize(12) {
		t.Fatal("shrink below configured meter 12 accepted")
	}
	if p.resize(-1) {
		t.Fatal("negative capacity accepted")
	}
	p.remove(12) // slot 12 keeps its drained bucket and counters
	if !p.resize(8) {
		t.Fatal("shrink to 8 rejected after meter 12 was removed")
	}
	if !p.resize(16) { // grow back over the slot that once held a meter
		t.Fatal("grow to 16 rejected")
	}
	p.configure(12, ethernet.Mbps, 64)
	p.conform(12, 2000, 64)
	if !p.resize(40) { // past cap: reallocates
		t.Fatal("grow to 40 rejected")
	}
	p.conform(3, 3000, 200)

	// Seeded script.
	rng := rand.New(rand.NewSource(20260929))
	var now sim.Time = 3000
	var grows, shrinks, staleShrinks, rejected int
	for i := 0; i < 5000; i++ {
		now += sim.Time(rng.Intn(50_000))
		n, req := p.ref.Capacity(), p.ref.RequiredCapacity()
		switch op := rng.Intn(10); {
		case op < 1:
			p.configure(rng.Intn(n+3)-1, ethernet.Rate(1+rng.Intn(100))*ethernet.Mbps, 64+rng.Intn(3000))
		case op < 5:
			p.conform(rng.Intn(n+3)-1, now, 64+rng.Intn(1500))
		case op < 7:
			if req > 0 && rng.Intn(2) == 0 {
				p.remove(req - 1) // the meter that pins the capacity
			} else if id := rng.Intn(n + 1); id < n && p.ref.inUse[id] {
				p.remove(id)
			}
		default:
			// Mostly near the occupancy bound, where accept and reject
			// meet; sometimes anywhere, which also grows past cap.
			target := req - 2 + rng.Intn(12)
			if rng.Intn(3) == 0 {
				target = rng.Intn(161)
			}
			stale := false
			for id := max(target, 0); id < n; id++ {
				stale = stale || p.got.meters[id] != (Meter{})
			}
			switch ok := p.resize(target); {
			case !ok:
				rejected++
			case target > n:
				grows++
			case target < n:
				shrinks++
				if stale {
					staleShrinks++ // a removed meter's leftover state left the table
				}
			}
		}
	}
	if grows < 100 || shrinks < 100 || staleShrinks < 20 || rejected < 100 {
		t.Fatalf("script too tame: %d grows, %d shrinks (%d over stale slots), %d rejected",
			grows, shrinks, staleShrinks, rejected)
	}
	t.Logf("%d steps: %d grows, %d shrinks (%d over stale slots), %d rejected",
		p.step, grows, shrinks, staleShrinks, rejected)
}

// TestResizeKeepsBackingArrays: the benchmark's 128↔64 flip never
// reallocates — same arrays, same cap, after 1 000 alternations.
func TestResizeKeepsBackingArrays(t *testing.T) {
	tbl := NewTable(128)
	for id := 0; id < 24; id++ {
		if err := tbl.Configure(id, ethernet.Mbps, 1500); err != nil {
			t.Fatal(err)
		}
	}
	m0, u0 := &tbl.meters[0], &tbl.inUse[0]
	for i := 0; i < 1000; i++ {
		if err := tbl.Resize([]int{64, 128}[i%2]); err != nil {
			t.Fatal(err)
		}
		if cap(tbl.meters) != 128 || cap(tbl.inUse) != 128 || &tbl.meters[0] != m0 || &tbl.inUse[0] != u0 {
			t.Fatalf("alternation %d: cap %d/%d, arrays moved: %v",
				i, cap(tbl.meters), cap(tbl.inUse), &tbl.meters[0] != m0 || &tbl.inUse[0] != u0)
		}
	}
	if tbl.Capacity() != 128 || used(tbl) != 24 {
		t.Fatalf("after alternations: capacity %d used %d", tbl.Capacity(), used(tbl))
	}
}
