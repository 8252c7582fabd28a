// Package scenariofile defines the on-disk JSON description of an
// application scenario — the input artifact a plant engineer would
// hand to the tsnbuild tool: topology shape, end-device placement and
// flow features. It converts the declarative form into the topology
// and flow specs the core derivation consumes.
package scenariofile

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// File is the root JSON document.
type File struct {
	// Topology names one of topology.Names: the star, ring and linear
	// shapes, which topology.New builds from Switches, or the tree.
	Topology string `json:"topology"`
	// Switches is the node count (star: child count + 1).
	Switches int `json:"switches"`
	// Spines/Leaves shape the tree topology.
	Spines int `json:"spines,omitempty"`
	Leaves int `json:"leaves,omitempty"`
	// Hosts places end devices: host ID → switch index. Host IDs must
	// be unique.
	Hosts map[string]int `json:"hosts"`
	// SlotUs is the CQF slot in µs (default 65).
	SlotUs int `json:"slot_us"`
	// AccessRateMbps, when positive, is the field-device link rate;
	// DeriveConfig widens the slot if the drain constraint demands it.
	AccessRateMbps int `json:"access_rate_mbps,omitempty"`
	// Flows lists explicit flows and/or generated groups.
	Flows []FlowEntry `json:"flows"`
}

// FlowEntry is either one explicit flow (Count == 0 or 1) or a
// generated group of Count flows cycling over the listed hosts.
type FlowEntry struct {
	// Class: "TS", "RC" or "BE".
	Class string `json:"class"`
	// Count generates this many flows (default 1).
	Count int `json:"count"`
	// Src/Dst are host IDs; for generated groups they may be omitted
	// when SrcHosts/DstHosts cycles are given.
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`
	// SrcHosts/DstHosts cycle across generated flows.
	SrcHosts []string `json:"src_hosts,omitempty"`
	DstHosts []string `json:"dst_hosts,omitempty"`
	// PeriodUs is the TS period in µs.
	PeriodUs int `json:"period_us,omitempty"`
	// DeadlineUs is the TS deadline in µs (0 = no deadline check).
	DeadlineUs int `json:"deadline_us,omitempty"`
	// SizeB is the on-wire frame size (default 64 for TS, 1024 for
	// RC/BE).
	SizeB int `json:"size_b,omitempty"`
	// RateMbps is the RC/BE bandwidth.
	RateMbps int `json:"rate_mbps,omitempty"`
	// Burst is the RC/BE frames emitted back-to-back per tick.
	Burst int `json:"burst,omitempty"`
}

// Load reads and parses a scenario file.
func Load(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Parse decodes a scenario document.
func Parse(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var file File
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("scenariofile: %w", err)
	}
	return &file, nil
}

// hostIDs assigns stable integer IDs to the named hosts.
type hostIDs struct {
	byName map[string]int
}

func (h *hostIDs) id(name string) (int, error) {
	id, ok := h.byName[name]
	if !ok {
		return 0, fmt.Errorf("scenariofile: unknown host %q", name)
	}
	return id, nil
}

// Build materializes the scenario: the topology with hosts attached and
// the flow specs with paths bound.
func (f *File) Build() (*topology.Topology, []*flows.Spec, error) {
	if len(f.Hosts) == 0 {
		return nil, nil, fmt.Errorf("scenariofile: no hosts")
	}
	var topo *topology.Topology
	k, err := topology.Parse(f.Topology)
	switch {
	case err != nil:
	case k == topology.KindStar || k == topology.KindRing || k == topology.KindLinear:
		topo, err = topology.New(f.Topology, f.Switches)
	case k != topology.KindTree:
		err = fmt.Errorf("topology %v is not offered in scenario files", k)
	case f.Spines < 1 || f.Leaves < 0:
		err = fmt.Errorf("tree needs spines >= 1 and leaves >= 0")
	default:
		topo = topology.Tree(f.Spines, f.Leaves)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("scenariofile: %w", err)
	}

	// Deterministic host numbering: sort names.
	names := slices.Sorted(maps.Keys(f.Hosts))
	ids := &hostIDs{byName: make(map[string]int)}
	for i, name := range names {
		sw := f.Hosts[name]
		if sw < 0 || sw >= topo.N {
			return nil, nil, fmt.Errorf("scenariofile: host %q on invalid switch %d", name, sw)
		}
		id := 100 + i
		ids.byName[name] = id
		topo.AttachHost(id, sw)
	}

	var specs []*flows.Spec
	nextID := uint32(1)
	nextVID := uint16(1)
	for ei, e := range f.Flows {
		count := e.Count
		if count <= 0 {
			count = 1
		}
		srcs, err := hostCycle(ids, e.Src, e.SrcHosts)
		if err != nil {
			return nil, nil, fmt.Errorf("scenariofile: flows[%d]: %w", ei, err)
		}
		dsts, err := hostCycle(ids, e.Dst, e.DstHosts)
		if err != nil {
			return nil, nil, fmt.Errorf("scenariofile: flows[%d]: %w", ei, err)
		}
		for i := 0; i < count; i++ {
			spec := &flows.Spec{
				ID:      nextID,
				SrcHost: srcs[i%len(srcs)],
				DstHost: dsts[i%len(dsts)],
				VID:     nextVID,
			}
			nextID++
			nextVID = nextVID%4000 + 1
			switch e.Class {
			case "TS":
				spec.Class = ethernet.ClassTS
				spec.Period = sim.Time(e.PeriodUs) * sim.Microsecond
				spec.Deadline = sim.Time(e.DeadlineUs) * sim.Microsecond
				spec.WireSize = e.SizeB
				if spec.WireSize == 0 {
					spec.WireSize = 64
				}
			case "RC", "BE":
				if e.Class == "RC" {
					spec.Class = ethernet.ClassRC
				} else {
					spec.Class = ethernet.ClassBE
				}
				spec.Rate = ethernet.Rate(e.RateMbps) * ethernet.Mbps
				spec.Burst = e.Burst
				spec.WireSize = e.SizeB
				if spec.WireSize == 0 {
					spec.WireSize = 1024
				}
			default:
				return nil, nil, fmt.Errorf("scenariofile: flows[%d]: unknown class %q", ei, e.Class)
			}
			spec.PCP = flows.PCPFor(spec.Class)
			if err := spec.Validate(); err != nil {
				return nil, nil, fmt.Errorf("scenariofile: flows[%d]: %w", ei, err)
			}
			specs = append(specs, spec)
		}
	}
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("scenariofile: no flows")
	}
	if err := core.BindPaths(topo, specs); err != nil {
		return nil, nil, err
	}
	return topo, specs, nil
}

// Scenario converts the file into a core.Scenario ready for
// DeriveConfig.
func (f *File) Scenario() (core.Scenario, error) {
	topo, specs, err := f.Build()
	if err != nil {
		return core.Scenario{}, err
	}
	slot := sim.Time(f.SlotUs) * sim.Microsecond
	return core.Scenario{
		Topo: topo, Flows: specs, SlotSize: slot,
		AccessRate: ethernet.Rate(f.AccessRateMbps) * ethernet.Mbps,
	}, nil
}

func hostCycle(ids *hostIDs, single string, many []string) ([]int, error) {
	names := many
	if len(names) == 0 {
		if single == "" {
			return nil, fmt.Errorf("no hosts given")
		}
		names = []string{single}
	}
	out := make([]int, len(names))
	for i, n := range names {
		id, err := ids.id(n)
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}
