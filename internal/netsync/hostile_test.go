package netsync

import (
	"net"
	"testing"
	"time"

	"clocksync/internal/model"
	"clocksync/internal/obs"
)

// TestHostileFramesDoNotKillNodes: a well-formed frame of an unexpected
// type — a "result" pushed at any listener, a "report" pushed at a
// non-coordinator — is a per-connection protocol error, never a node
// failure. Pre-hardening, a 7-byte frame from any peer terminated the
// process; now the connection closes, the counter ticks and the cluster
// completes unauthenticated as before. A rejected report is not a
// received one: it neither counts in ReportsReceived nor plants its
// shipped spans in the coordinator's cluster trace.
func TestHostileFramesDoNotKillNodes(t *testing.T) {
	offsets := []time.Duration{0, 80 * time.Millisecond, -20 * time.Millisecond}
	// Only the coordinator traces, so honest reports ship no spans and
	// any span merged from a report frame was planted.
	cluster := obs.NewTrace("hostile")
	nodes := startCluster(t, offsets, time.Millisecond, 0.5, func(cfg *Config) {
		if cfg.ID == 0 {
			cfg.Trace = cluster
		}
	})
	planted := []obs.Span{{Phase: "planted", Proc: 2, ID: 0x5eed, Parent: obs.RootSpanID}}

	inject := func(addr string, m *Message) {
		t.Helper()
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := newConn(raw)
		if err := c.send(m, 2*time.Second); err != nil {
			t.Fatalf("send hostile frame: %v", err)
		}
		// The node answers by closing the connection, not by dying.
		if _, err := c.recv(4 * time.Second); err == nil {
			t.Fatal("hostile frame was answered instead of dropped")
		}
		_ = c.close()
	}

	// A result frame at the coordinator's listener.
	inject(nodes[0].Addr(), &Message{Type: "result", Corrections: []float64{0, 0, 0}})
	// A report frame at a non-coordinator.
	inject(nodes[1].Addr(), &Message{Type: "report", Origin: 2})
	// An out-of-range origin at the coordinator (unauthenticated cluster):
	// absorbed, it would inflate the quorum count and mark honest nodes
	// missing.
	inject(nodes[0].Addr(), &Message{Type: "report", Origin: -1})
	// Malformed reports in node 2's name, sent before node 2 reports: an
	// empty link, and a link for another node. Stored, either would turn
	// node 2's genuine report away as a duplicate and fail the round.
	inject(nodes[0].Addr(), &Message{Type: "report", Origin: 2, Span: 0x5eed, Spans: planted,
		Links: []LinkStats{{From: 1, To: 2, Count: 0}}})
	inject(nodes[0].Addr(), &Message{Type: "report", Origin: 2, Span: 0x5eed, Spans: planted,
		Links: []LinkStats{{From: 0, To: 1, Count: 1, Min: 0.1, Max: 0.1}}})

	waitClusterSound(t, nodes, offsets)
	if pe := nodes[0].Stats().ProtocolErrors; pe != 4 {
		t.Fatalf("coordinator ProtocolErrors = %d, want 4", pe)
	}
	if got := nodes[0].Stats().ReportsReceived; got != 2 {
		t.Errorf("coordinator ReportsReceived = %d, want 2 (the honest peers only)", got)
	}
	for _, sp := range cluster.Spans() {
		if sp.Phase == "planted" || sp.Phase == "report.recv" {
			t.Errorf("rejected report left span %q (id %#x) in the cluster trace", sp.Phase, uint64(sp.ID))
		}
	}
	if pe := nodes[1].Stats().ProtocolErrors; pe != 1 {
		t.Fatalf("node 1 ProtocolErrors = %d, want 1", pe)
	}
}

// TestHostileProbeSenderIsProtocolError: in an unauthenticated cluster a
// probe claiming a nonexistent sender, or the receiving node itself, is a
// protocol error. Folded into the coordinator's incoming statistics, it
// used to fail the table build and with it every node's round.
func TestHostileProbeSenderIsProtocolError(t *testing.T) {
	offsets := []time.Duration{0, 50 * time.Millisecond, -40 * time.Millisecond}
	nodes := startCluster(t, offsets, time.Millisecond, 0.5)

	for _, from := range []int{7, 0} {
		raw, err := net.Dial("tcp", nodes[0].Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := newConn(raw)
		if err := c.send(&Message{Type: "probe", From: model.ProcID(from), SendClock: 1}, 2*time.Second); err != nil {
			t.Fatalf("send hostile probe: %v", err)
		}
		if _, err := c.recv(4 * time.Second); err == nil {
			t.Fatal("hostile probe was answered instead of dropped")
		}
		_ = c.close()
	}

	waitClusterSound(t, nodes, offsets)
	if pe := nodes[0].Stats().ProtocolErrors; pe != 2 {
		t.Fatalf("coordinator ProtocolErrors = %d, want 2", pe)
	}
}
