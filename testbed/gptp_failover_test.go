package testbed

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

func TestGPTPFailoverReconvergence(t *testing.T) {
	// Kill the grandmaster mid-run through the fault engine and verify
	// the two E-SYNC robustness numbers: BMCA re-elects and the domain's
	// precision re-enters the <50 ns steady-state band (DESIGN.md
	// E-SYNC) within a bounded reconvergence time.
	const (
		killAt     = 2500 * sim.Millisecond // 2 s gPTP warmup + 0.5 s
		reconverge = 1500 * sim.Millisecond // detection + election + servo
		bound      = 50 * sim.Nanosecond
	)
	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count: 12, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { src := i % 6; return 100 + src, 100 + (src+2)%6 },
		Seed:  11,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i)
	}
	if err := core.BindPaths(topo, specs); err != nil {
		t.Fatal(err)
	}
	der, err := core.DeriveConfig(core.Scenario{Topo: topo, Flows: specs})
	if err != nil {
		t.Fatal(err)
	}
	der.Plan.Apply(specs)
	design, err := core.BuilderFor(der.Config, nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	net, err := Build(Options{
		Design: design, Topo: topo, Flows: specs,
		EnableGPTP: true, Seed: 5,
		Faults: &faults.Scenario{Faults: []faults.Fault{
			{AtUs: int64(killAt / sim.Microsecond), Kind: faults.KindGMKill},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The silent crash is only detectable with the 802.1AS sync-receipt
	// watchdog armed (three missed sync intervals).
	net.Domain.EnableAutoFailover()
	oldGM := net.Domain.Grandmaster()

	// Sample domain precision every 50 ms after the kill to measure the
	// reconvergence time empirically.
	type sample struct {
		at  sim.Time
		off sim.Time
	}
	var samples []sample
	for at := killAt + 50*sim.Millisecond; at <= killAt+2000*sim.Millisecond; at += 50 * sim.Millisecond {
		at := at
		net.Engine.At(at, "precision-sample", func(*sim.Engine) {
			samples = append(samples, sample{at, net.Domain.MaxAbsOffset()})
		})
	}

	net.Run(2*sim.Second, 2600*sim.Millisecond)

	newGM := net.Domain.Grandmaster()
	if newGM == nil || newGM == oldGM {
		t.Fatal("BMCA never re-elected after the grandmaster died")
	}
	// Reconvergence: first sample back under the bound that stays under
	// it for the rest of the run.
	reconvergedAt := sim.Time(-1)
	for _, s := range samples {
		if s.off >= bound {
			reconvergedAt = -1
			continue
		}
		if reconvergedAt < 0 {
			reconvergedAt = s.at
		}
	}
	if reconvergedAt < 0 {
		t.Fatalf("domain never re-entered the %v band; last sample %v", bound, samples[len(samples)-1].off)
	}
	if got := reconvergedAt - killAt; got > reconverge {
		t.Fatalf("reconvergence took %v, bound %v", got, reconverge)
	}
	if off := net.Domain.MaxAbsOffset(); off > bound {
		t.Fatalf("steady-state precision after failover = %v, want < %v", off, bound)
	}
}
