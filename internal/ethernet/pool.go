package ethernet

// Pool is one engine's free list of frames (see the ownership contract
// in frame.go), unsynchronised like all an engine owns. It keeps no
// more frames than it minted, so a partition that only receives cannot
// hoard a sender's; what is not Put, or not kept, is garbage.
type Pool struct {
	free   []*Frame
	minted int
}

// Stats returns how many frames the pool holds and how many it minted.
func (p *Pool) Stats() (held, minted int) { return len(p.free), p.minted }

// Get returns a zero frame: the one Put last, or a new one.
func (p *Pool) Get() *Frame {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	p.minted++
	return new(Frame)
}

// Put takes f back from its owner and clears it: a stale reader sees
// flow 0 and an inactive span, not the next flow's frame. Putting a
// frame the pool holds is the caller's bug (two injections would share
// it); only the case that is free to see, twice in a row, panics.
func (p *Pool) Put(f *Frame) {
	if n := len(p.free); n > 0 && p.free[n-1] == f {
		panic("ethernet: frame returned to its pool twice")
	}
	*f = Frame{}
	if len(p.free) < p.minted {
		p.free = append(p.free, f)
	}
}
