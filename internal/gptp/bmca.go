package gptp

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// This file implements a condensed Best Master Clock Algorithm: every
// time-aware system floods Announce messages carrying its priority
// vector; the best vector wins and the sync spanning tree is rebuilt
// toward the winner. Failing the current grandmaster triggers
// re-election and the survivors re-home automatically, because sync
// transmission checks port roles at send time.

// SetPriority assigns node n's announced system identity.
func (d *Domain) SetPriority(n *Node, pv PriorityVector) { n.priority = pv }

// Priority returns node n's announced system identity.
func (n *Node) Priority() PriorityVector { return n.priority }

// Elect runs the BMCA over the alive nodes: Announce messages flood the
// link graph (marshaled and unmarshaled at every hop, as on the wire)
// until every node agrees on the best priority vector. It returns the
// winner without changing the domain; use ElectAndAssume to also
// rebuild the tree.
func (d *Domain) Elect() (*Node, error) {
	best := make(map[*Node]PriorityVector)
	var any bool
	for _, n := range d.nodes {
		if !n.alive {
			continue
		}
		best[n] = n.priority
		any = true
	}
	if !any {
		return nil, fmt.Errorf("gptp: no alive nodes to elect from")
	}
	// Flood until no vector improves (at most diameter rounds).
	for changed := true; changed; {
		changed = false
		for _, n := range d.nodes {
			if !n.alive {
				continue
			}
			for _, p := range n.ports {
				peer := p.peer.owner
				if !peer.alive {
					continue
				}
				// Announce from n to peer, over the codec.
				msg := &Message{Type: MsgAnnounce, Priority: best[n]}
				frame := msg.Marshal(d.srcMAC(n))
				got, err := UnmarshalMessage(frame)
				if err != nil {
					return nil, err
				}
				if got.Priority.Less(best[peer]) {
					best[peer] = got.Priority
					changed = true
				}
			}
		}
	}
	// The winner is the node whose own identity equals the agreed best.
	var agreed *PriorityVector
	for _, pv := range best {
		pv := pv
		if agreed == nil || pv.Less(*agreed) {
			agreed = &pv
		}
	}
	for _, n := range d.nodes {
		if n.alive && n.priority == *agreed {
			// All alive nodes must have converged onto this vector.
			for _, pv := range best {
				if pv != *agreed {
					return nil, fmt.Errorf("gptp: election did not converge (partitioned domain?)")
				}
			}
			return n, nil
		}
	}
	return nil, fmt.Errorf("gptp: agreed vector %+v has no owner", *agreed)
}

// ElectAndAssume elects the best master and rebuilds the sync tree
// toward it.
func (d *Domain) ElectAndAssume() (*Node, error) {
	gm, err := d.Elect()
	if err != nil {
		return nil, err
	}
	if err := d.assume(gm); err != nil {
		return nil, err
	}
	return gm, nil
}

// assume rebuilds the spanning tree toward gm, skipping dead nodes.
func (d *Domain) assume(gm *Node) error {
	if !gm.alive {
		return fmt.Errorf("gptp: grandmaster %d is dead", gm.ID)
	}
	prev := make(map[*Node]*Port, len(d.nodes))
	for _, n := range d.nodes {
		prev[n] = n.upstream
		n.upstream = nil
	}
	visited := map[*Node]bool{gm: true}
	queue := []*Node{gm}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, p := range n.ports {
			child := p.peer.owner
			if !child.alive || visited[child] {
				continue
			}
			visited[child] = true
			child.upstream = p.peer
			queue = append(queue, child)
		}
	}
	for _, n := range d.nodes {
		if n.alive && !visited[n] {
			return fmt.Errorf("gptp: node %d unreachable from new grandmaster %d", n.ID, gm.ID)
		}
	}
	d.gm = gm
	for _, n := range d.nodes {
		if n.upstream != prev[n] {
			d.metRoleChanges.Inc()
		}
	}
	return nil
}

// FailNode takes n out of service: it stops sending and processing
// sync, its clock free-runs (holdover), and if it was the grandmaster a
// new one is elected and the survivors re-home.
func (d *Domain) FailNode(n *Node) error {
	n.alive = false
	if d.gm != n {
		// A non-GM failure only needs a tree rebuild if it was a
		// transit node.
		return d.assume(d.gm)
	}
	_, err := d.ElectAndAssume()
	return err
}

// KillNode silently takes n out of service without notifying the
// domain — the crash case. Detection is the watchdog's job (see
// EnableAutoFailover); contrast with FailNode, which models an
// administrative shutdown that triggers immediate re-election.
func (d *Domain) KillNode(n *Node) { n.alive = false }

// EnableAutoFailover arms a sync-receipt watchdog, the 802.1AS
// syncReceiptTimeout mechanism: every three sync intervals, any alive
// non-GM node that has not received a sync correction for that long
// declares the upstream path dead. If the grandmaster itself died the
// domain re-elects; survivors re-home either way.
func (d *Domain) EnableAutoFailover() {
	var watchdog func(*sim.Engine)
	watchdog = func(e *sim.Engine) {
		d.checkSyncReceipt(e.Now())
		e.After(syncReceiptTimeout, "sync-watchdog", watchdog)
	}
	d.engine.After(syncReceiptTimeout, "sync-watchdog", watchdog)
}

// checkSyncReceipt performs one watchdog pass.
func (d *Domain) checkSyncReceipt(now sim.Time) {
	if d.gm == nil {
		return
	}
	if !d.gm.alive {
		// GM known-dead (e.g. killed silently): re-elect.
		if _, err := d.ElectAndAssume(); err == nil {
			return
		}
	}
	stale := false
	for _, n := range d.nodes {
		if n == d.gm || !n.alive {
			continue
		}
		if n.synced && now-n.lastCorrAt > syncReceiptTimeout {
			stale = true
			break
		}
	}
	if !stale {
		return
	}
	// Sync stopped flowing somewhere: if the GM stopped responding the
	// election excludes it; a transit failure just rebuilds the tree.
	if _, err := d.ElectAndAssume(); err != nil {
		// Partitioned: keep the current tree among reachable nodes.
		_ = d.assume(d.gm)
	}
}
