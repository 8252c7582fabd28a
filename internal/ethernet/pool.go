package ethernet

// Pool is one engine's free list of frames (see the ownership contract
// in frame.go), unsynchronised like all an engine owns. Frames end at a
// NIC that received them, at a switch that dropped them (or the
// original a multicast replicated) or on a faulted wire, and all three
// Put them here. A pool keeps no more frames than it minted, so a
// partition that only receives cannot hoard a sender's.
type Pool struct {
	free []*Frame
	// block is the unused tail of the newest frame block: a new
	// in-flight high water mints from it, frameBlock frames per
	// allocation.
	block  []Frame
	minted int
}

// frameBlock is how many frames one allocation provides: tens, so a
// network's in-flight high water costs a few dozen allocations and a
// pool that mints a handful wastes at most a block's 2 KB.
const frameBlock = 16

// Stats returns how many frames the pool holds and how many it minted.
func (p *Pool) Stats() (held, minted int) { return len(p.free), p.minted }

// Get returns a zero frame: the one Put last, or a new one.
func (p *Pool) Get() *Frame {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	if len(p.block) == 0 {
		p.block = make([]Frame, frameBlock)
	}
	p.minted++
	f := &p.block[0]
	p.block = p.block[1:]
	return f
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
