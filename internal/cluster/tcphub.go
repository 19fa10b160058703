package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// hub is the root-process router: one inbound reader per connection moving
// raw frames into per-destination queues, and the hub end of one link per
// node draining them. Frames are routed by the fixed-offset destination
// field without decoding, into slab-pool buffers released after the
// forwarding write.
type hub struct {
	t     *TCPTransport
	ln    net.Listener
	nodes []*link // by node id
}

func newHub(t *TCPTransport, ln net.Listener) *hub {
	h := &hub{t: t, ln: ln, nodes: make([]*link, t.cfg.NumNodes)}
	for i := range h.nodes {
		h.nodes[i] = newLink(t, i, true)
	}
	return h
}

func (h *hub) acceptLoop() {
	for {
		c, err := h.ln.Accept()
		if err != nil {
			return // listener closed by shutdown/abort
		}
		go h.serve(c.(*net.TCPConn))
	}
}

// serve handshakes one inbound connection. Rejections (bad magic, version or
// geometry mismatch, duplicate or out-of-range node id) answer with an abort
// frame and close that connection only — a stray dialer must not kill the
// wall.
func (h *hub) serve(c *net.TCPConn) {
	t := h.t
	c.SetDeadline(time.Now().Add(t.helloTimeout))
	reject := func(cause error) {
		c.Write(AppendAbortFrame(nil, cause))
		c.Close()
	}
	br := bufio.NewReaderSize(c, readBufferBytes)
	var rd frameReader
	fr, err := rd.read(br)
	if err != nil {
		reject(fmt.Errorf("%w: %v", ErrHandshake, err))
		return
	}
	if fr.Type != frameHello {
		reject(fmt.Errorf("%w: frame %#x instead of hello", ErrHandshake, fr.Type))
		return
	}
	hl := fr.Hello
	switch {
	case hl.Version != WireVersion:
		reject(fmt.Errorf("%w: peer speaks wire version %d, hub wants %d", ErrHandshake, hl.Version, WireVersion))
		return
	case hl.NumNodes != t.cfg.NumNodes || hl.Grid != t.cfg.Grid:
		reject(fmt.Errorf("%w: peer wall %d nodes %+v, hub wall %d nodes %+v",
			ErrHandshake, hl.NumNodes, hl.Grid, t.cfg.NumNodes, t.cfg.Grid))
		return
	case hl.Node < 0 || hl.Node >= t.cfg.NumNodes:
		reject(fmt.Errorf("%w: node id %d out of range", ErrHandshake, hl.Node))
		return
	}
	l := h.nodes[hl.Node]
	l.mu.Lock()
	old := l.conn
	if old != nil && !t.cfg.Recoverable {
		l.mu.Unlock()
		reject(fmt.Errorf("%w: node %d already connected", ErrHandshake, hl.Node))
		return
	}
	// The accept must be on the wire before the writer can touch the new
	// connection: the dialing port reads exactly one frame as its handshake
	// answer, and a queued data frame slipping ahead of the accept would fail
	// it. Holding mu keeps the writer off the slot until then. After an
	// abort the teardown owns every attached connection, so none is added.
	_, err = c.Write(AppendAcceptFrame(nil, Accept{Version: WireVersion, NumNodes: t.cfg.NumNodes}))
	if err != nil || t.aborted() {
		l.mu.Unlock()
		c.Close()
		return
	}
	c.SetDeadline(time.Time{})
	// In recoverable mode the writer survives the swap, resuming the queued
	// outbound window on the new connection — the replayed window a
	// reconnecting node is owed.
	l.attachLocked(c, nil)
	done := make(chan struct{})
	l.readerDone = done
	l.mu.Unlock()
	if old != nil {
		// Takeover: the node is redialing after a link loss its old
		// connection hasn't surfaced here yet. Kill the stale connection; its
		// reader detaches quietly in recoverable mode. The kill is a reset,
		// not an orderly close: if the hello came from a stray dialer instead
		// and old is the node's live connection, the port must read a link
		// loss and redial — an orderly EOF would read as hub shutdown and
		// end its reader, and the node would go silent.
		old.SetLinger(0)
		old.Close()
	}
	go h.linkReader(l, c, br, done)
}

// linkReader moves raw frames from one connection into the destination
// queues. Frames are not decoded: the length prefix is validated, the body
// lands in a slab, and the destination is read at its fixed offset.
func (h *hub) linkReader(l *link, c *net.TCPConn, br *bufio.Reader, done chan struct{}) {
	defer close(done)
	t := h.t
	// In recoverable mode a link-level read failure detaches this connection
	// quietly — partial frames die with it — and the node's redial
	// re-admits it; only frame corruption still aborts the wall.
	linkDown := func(err error) {
		if t.recoverable() {
			l.detach(c)
			return
		}
		t.linkError("hub read", l.node, err)
	}
	var hdr [frameLenBytes]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return // orderly close; the link's outbound side flushes separately
			}
			linkDown(err)
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if err := checkFrameLen(n); err != nil {
			t.Abort(fmt.Errorf("link from node %d: %w", l.node, err))
			return
		}
		raw := GetSlab(frameLenBytes + int(n))[:frameLenBytes+int(n)]
		copy(raw, hdr[:])
		if _, err := io.ReadFull(br, raw[frameLenBytes:]); err != nil {
			PutSlab(raw)
			linkDown(truncOrIO(err))
			return
		}
		switch raw[rawTypeOff] {
		case frameMessage:
			if int(n) < 1+msgHeaderWireBytes {
				PutSlab(raw)
				t.Abort(fmt.Errorf("%w: short message frame from node %d", ErrFrameCorrupt, l.node))
				return
			}
			dest := int(raw[rawDestOff])<<8 | int(raw[rawDestOff+1])
			if dest >= t.cfg.NumNodes {
				PutSlab(raw)
				t.Abort(fmt.Errorf("%w: frame from node %d to unknown node %d", ErrFrameCorrupt, l.node, dest))
				return
			}
			t.touch()
			if !h.nodes[dest].q.put(outItem{raw: raw, slab: true}) {
				PutSlab(raw)
			}
		case frameAbort:
			fr, err := decodeFrameBody(raw[rawTypeOff], raw[rawTypeOff+1:])
			PutSlab(raw)
			if err != nil {
				t.Abort(fmt.Errorf("link from node %d: %w", l.node, err))
			} else {
				t.Abort(fr.Abort)
			}
			return
		default:
			PutSlab(raw)
			t.Abort(fmt.Errorf("%w: frame %#x from node %d after handshake", ErrHandshake, raw[rawTypeOff], l.node))
			return
		}
	}
}

// shutdown performs the hub's half of a clean teardown. Call order matters:
// the local ports' write sides are already flushed and half-closed, so (1)
// their connections' readers drain to EOF — every locally-originated frame
// is now routed; (2) every node's outbound side flushes and half-closes,
// delivering everything (including shutdown broadcasts) to remote
// processes; (3) stop accepting.
func (h *hub) shutdown() {
	for _, id := range h.t.cfg.LocalNodes {
		l := h.nodes[id]
		l.mu.Lock()
		done := l.readerDone
		l.mu.Unlock()
		if done != nil {
			<-done
		}
	}
	for _, l := range h.nodes {
		l.close(nil)
	}
	for _, l := range h.nodes {
		l.wait()
	}
	h.ln.Close()
}
