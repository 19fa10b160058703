// Package clustertest holds transport fault injection for tests.
package clustertest

import "tiledwall/internal/cluster"

// Dropping wraps tr so that every Send first asks drop, which sees the
// message addressed (From and To set); true loses the message on the wire:
// no delivery, no accounting. GM itself is reliable, so the protocols have
// no retransmit path — a dropped credit message stalls the pipeline, which
// the stall watchdog must then catch. drop is called concurrently from
// every sending node and must be thread-safe.
func Dropping(tr cluster.Transport, drop func(m *cluster.Message) bool) cluster.Transport {
	return dropTransport{tr, drop}
}

type dropTransport struct {
	cluster.Transport
	drop func(m *cluster.Message) bool
}

func (t dropTransport) Port(id int) cluster.Port { return t.Transport.Port(id).Dropping(t.drop) }
