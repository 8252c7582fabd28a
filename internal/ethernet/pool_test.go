package ethernet

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/israce"
)

// TestPoolReusesLastReturned: Get hands back what Put took, newest
// first, and mints only when nothing is parked.
func TestPoolReusesLastReturned(t *testing.T) {
	var p Pool
	a, b, c := p.Get(), p.Get(), p.Get()
	if a == b || b == c || a == c {
		t.Fatal("Get minted one frame twice")
	}
	p.Put(a)
	p.Put(c)
	if got := p.Get(); got != c {
		t.Fatal("Get did not return the frame Put last")
	}
	if got := p.Get(); got != a {
		t.Fatal("Get did not return the frame Put before it")
	}
	if got := p.Get(); got == a || got == b || got == c {
		t.Fatal("an empty pool handed out a frame somebody owns")
	}
	if p.minted != 4 {
		t.Fatalf("minted %d frames, want 4", p.minted)
	}
}

// TestPoolPutClearsTheFrame: whoever still holds the pointer reads a
// zero frame (no flow, no sequence number, no row, inactive span, no payload),
// not the next owner's — and the payload is not pinned by the pool.
func TestPoolPutClearsTheFrame(t *testing.T) {
	var p Pool
	f := p.Get()
	*f = Frame{Dst: HostMAC(2), Src: HostMAC(1), VID: 7, PCP: 3, EtherType: TypeTSN,
		Payload: make([]byte, 46), FlowID: 9, Seq: 41, Class: ClassTS, Row: 3, SentAt: 1000}
	f.Span.Begin(1000)
	f.Span.OnDeliver(2000, 100, 500)
	p.Put(f)
	if f.FlowID != 0 || f.Seq != 0 || f.Row != 0 || f.Payload != nil || f.SentAt != 0 || f.Span != (Span{}) || f.Dst != (MAC{}) {
		t.Fatalf("frame after Put: %+v", *f)
	}
	if g := p.Get(); g != f || g.VID != 0 || g.Class != ClassBE {
		t.Fatalf("Get returned %+v", *g)
	}
}

// TestPoolKeepsAtMostWhatItMinted: a pool that minted 3 frames and is
// given 10 it never minted (a partition that only receives, multicast
// clones) keeps 3 and leaves the rest to the garbage collector.
func TestPoolKeepsAtMostWhatItMinted(t *testing.T) {
	var p Pool
	for i := 0; i < 3; i++ {
		p.Get()
	}
	foreign := make([]*Frame, 10)
	for i := range foreign {
		foreign[i] = &Frame{FlowID: uint32(i + 1)}
		p.Put(foreign[i])
	}
	if len(p.free) != 3 || p.minted != 3 {
		t.Fatalf("pool holds %d frames after minting %d, want 3 of 3", len(p.free), p.minted)
	}
	for i := 2; i >= 0; i-- { // the first three, newest first; the other seven were dropped
		if got := p.Get(); got != foreign[i] {
			t.Fatalf("Get %d returned a frame the pool should have dropped", 2-i)
		}
	}
	for _, f := range foreign {
		if f.FlowID != 0 {
			t.Fatal("a frame the pool did not keep was not cleared")
		}
	}
	if p.Get(); p.minted != 4 {
		t.Fatalf("minted %d, want 4 once the kept frames are out again", p.minted)
	}
}

// TestPoolPutTwiceInARowPanics: the one double return that is free to
// detect. (Two Puts of one frame with another Put between them are not
// caught; see Put.)
func TestPoolPutTwiceInARowPanics(t *testing.T) {
	var p Pool
	f, g := p.Get(), p.Get()
	p.Put(g)
	p.Put(f)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same frame did not panic")
		}
		if len(p.free) != 2 {
			t.Fatalf("pool holds %d frames after the rejected Put, want 2", len(p.free))
		}
	}()
	p.Put(f)
}

// TestPoolMintsInBlocks: a pool that mints 40 frames hands out 40
// distinct frames from three blocks of frameBlock, and counts each
// frame it handed out, not the block's unused tail.
func TestPoolMintsInBlocks(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var p Pool
	frames := make([]*Frame, 40)
	allocs := testing.AllocsPerRun(1, func() {
		p = Pool{}
		for i := range frames {
			frames[i] = p.Get()
		}
	})
	if blocks := (len(frames) + frameBlock - 1) / frameBlock; allocs != float64(blocks) {
		t.Fatalf("minting %d frames allocated %.0f times, want %d blocks", len(frames), allocs, blocks)
	}
	if held, minted := p.Stats(); held != 0 || minted != len(frames) {
		t.Fatalf("pool holds %d and minted %d, want 0 and %d", held, minted, len(frames))
	}
	seen := make(map[*Frame]bool)
	for _, f := range frames {
		if seen[f] {
			t.Fatal("Get handed out one frame twice")
		}
		seen[f] = true
	}
}
