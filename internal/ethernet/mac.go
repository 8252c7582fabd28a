// Package ethernet models IEEE 802.3/802.1Q frames at the level a TSN
// switch dataplane needs: MAC addressing, VLAN tags with PCP priority,
// a binary codec used by the simulated wire, and transmission-time math
// (including preamble and inter-frame gap) so end-to-end latencies match
// what a hardware tester would observe on 1 Gbps links. Frames move by
// pointer under a one-owner contract and are recycled through a
// per-engine Pool once an end station has consumed them (frame.go).
package ethernet

import (
	"fmt"
)

// MAC is a 48-bit IEEE MAC address.
type MAC [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IsMulticast reports whether the address has the group bit set
// (includes broadcast). The paper's Packet Switch consults this bit to
// choose between the unicast and multicast tables.
func (m MAC) IsMulticast() bool { return m[0]&0x01 != 0 }

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// String formats the address in canonical colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// HostMAC returns a deterministic locally-administered unicast MAC for
// host number id. The testbed uses these for end devices.
func HostMAC(id int) MAC {
	return MAC{0x02, 0x00, 0x5e, byte(id >> 16), byte(id >> 8), byte(id)}
}

// SwitchMAC returns a deterministic MAC identifying switch id. Used as
// the source of gPTP messages originated by a switch.
func SwitchMAC(id int) MAC {
	return MAC{0x02, 0x01, 0x5e, byte(id >> 16), byte(id >> 8), byte(id)}
}
