package svc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// Spec is the northbound application spec of POST /v1/derive: a
// workload.Params, so any service request is replayable as a command
// line. It is a defined type to carry the service's defaults, limits and
// cache key. The derivation is a pure function of the normalized spec,
// which is what makes the cache sound: same spec hash, same bytes. An
// unknown key is a 400, never ignored: a misspelled "hop" would
// otherwise answer with the default hops' derivation.
type Spec workload.Params

// Derivation size limits: the service is a shared frontend, so one
// request must not be able to buy unbounded CPU. The bounds cover the
// paper's scenarios with an order of magnitude to spare.
const (
	MaxSwitches = 64
	MaxTSFlows  = 512
)

// Normalize applies the service's defaults, drops ts_deadline_ns (a
// derivation never reads a deadline, so it must not split the cache) and
// checks workload.Params.Validate plus the service's cost limits. The
// normalized spec is the cache identity: two requests that normalize
// equal share one derivation.
func (s *Spec) Normalize() error {
	if s.Hops == 0 {
		s.Hops = 2
	}
	if s.WireSize == 0 {
		s.WireSize = 200
	}
	if s.SlotUs == 0 {
		s.SlotUs = 65
	}
	s.TSDeadline = 0
	if err := s.Params().Validate(); err != nil {
		return err
	}
	switch k, _ := topology.Parse(s.Topology); {
	case k == topology.KindMesh || k == topology.KindFatTree:
		return fmt.Errorf("svc: the %v topology is not derived here (tsnsim builds it)", k)
	case s.Switches > MaxSwitches:
		return fmt.Errorf("svc: switches %d above %d", s.Switches, MaxSwitches)
	case s.TSFlows > MaxTSFlows:
		return fmt.Errorf("svc: ts_flows %d above %d", s.TSFlows, MaxTSFlows)
	case s.SlotUs < 5 || s.SlotUs > 1000:
		return fmt.Errorf("svc: slot_us %d out of [5,1000]", s.SlotUs)
	case s.RCMbps > 1000 || s.BEMbps > 1000:
		return fmt.Errorf("svc: background rates above 1000 Mbps")
	case s.FRERFlows > workload.MaxFRERFlows:
		return fmt.Errorf("svc: frer_flows %d above %d", s.FRERFlows, workload.MaxFRERFlows)
	}
	return nil
}

// Hash returns the normalized spec's cache key: the hex SHA-256 of
// "topology|switches|ts_flows|hops|wire_size|slot_us|rc_mbps|be_mbps|
// frer_flows|seed" in decimal. Call Normalize first. The key is built in
// a stack buffer, so a hash costs one allocation — the returned string.
func (s *Spec) Hash() string {
	var buf [128]byte
	b := append(buf[:0], s.Topology...)
	for _, v := range [...]int{s.Switches, s.TSFlows, s.Hops, s.WireSize, s.SlotUs, s.RCMbps, s.BEMbps, s.FRERFlows} {
		b = strconv.AppendInt(append(b, '|'), int64(v), 10)
	}
	b = strconv.AppendUint(append(b, '|'), s.Seed, 10)
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// Params is the spec as workload build parameters.
func (s *Spec) Params() workload.Params { return workload.Params(*s) }

// ConfigJSON is the wire form of a resource configuration — the Table
// II set_* parameter file a derivation produces and a reconfiguration
// transacts to. core.Config carries the wire tags itself, so a
// configuration is encoded as it is, never copied into a second struct.
type ConfigJSON = core.Config

// MemoryItem is one row of the platform memory report.
type MemoryItem struct {
	Label string `json:"label"`
	Bits  int64  `json:"bits"`
}

// DeriveResponse is POST /v1/derive's body. It is deterministic for a
// spec hash — the cache-coherence oracle compares cached and fresh
// bodies byte for byte.
type DeriveResponse struct {
	SpecHash     string       `json:"spec_hash"`
	Config       ConfigJSON   `json:"config"`
	MaxOccupancy int          `json:"max_occupancy"`
	MemoryKb     float64      `json:"memory_kb"`
	Memory       []MemoryItem `json:"memory"`
}

// ReconfigRequest is POST /v1/reconfig's body: absolute new network-wide
// values for the live-resizable resources, read by core.Overlay: zero
// keeps the live value, a negative value is rejected. A table size N
// means "N minus this switch's derived spare" on each switch
// (core.Design.Local). It is the narrower HTTP form of tsnsim's
// -reconfig file (chaos.Delta).
type ReconfigRequest struct {
	UnicastSize   int `json:"unicast_size,omitempty"`
	MulticastSize int `json:"multicast_size,omitempty"`
	ClassSize     int `json:"class_size,omitempty"`
	MeterSize     int `json:"meter_size,omitempty"`
	QueueDepth    int `json:"queue_depth,omitempty"`
	BufferNum     int `json:"buffer_num,omitempty"`
}

// Empty reports a request that changes nothing.
func (r *ReconfigRequest) Empty() bool { return *r == ReconfigRequest{} }

// decodeDelta reads a POST /v1/reconfig body strictly: an unknown field
// or a negative value is an error.
func decodeDelta(body io.Reader) (*ReconfigRequest, error) {
	req := new(ReconfigRequest)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil {
		_, err = core.Overlay(core.Config{}, req)
	}
	return req, err
}

// ReconfigResponse is POST /v1/reconfig's 200 body: the transaction is
// committed and observable — Seq is its position in the instance's
// committed journal, Config the configuration now in force.
type ReconfigResponse struct {
	Seq        uint64     `json:"seq"`
	State      string     `json:"state"`
	Attempts   int        `json:"attempts"`
	CommitAtNs sim.Time   `json:"commit_at_ns"`
	Config     ConfigJSON `json:"config"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}
