package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire format of the TCP transport (DESIGN.md §12). Every frame is
//
//	u32  frameLen   big-endian; length of everything after this field
//	u8   frameType  hello | accept | message | abort
//	...  body       type-specific, frameLen-1 bytes
//
// Message bodies carry the full cluster.Message header followed by the
// payload verbatim:
//
//	u8   kind      u8   flags
//	u16  from      u16  to
//	u32  session
//	i32  seq       i32  tag
//	u64  reserved  always 0 (once a per-link sequence number)
//	...  payload   frameLen - 1 - 26 bytes
//
// The destination sits at a fixed offset so the hub can route a frame
// without decoding the payload. Hello/accept implement the versioned
// handshake; abort frames propagate a transport abort (class + message)
// across process boundaries so every node observes the same cause.

const (
	// wireMagic opens every hello frame ("TWL1"); a dialer that is not a
	// tiledwall node fails the handshake instead of corrupting the wall.
	wireMagic uint32 = 0x54574c31
	// WireVersion is the protocol revision exchanged in the handshake.
	// Mismatched peers are rejected with ErrHandshake.
	WireVersion byte = 1

	frameHello   byte = 0x01
	frameAccept  byte = 0x02
	frameMessage byte = 0x03
	frameAbort   byte = 0x04

	// frameLenBytes is the size of the length prefix.
	frameLenBytes = 4
	// msgHeaderWireBytes is the fixed Message header on the wire.
	msgHeaderWireBytes = 26
	// helloBodyBytes: magic u32, version u8, node u16, numNodes u16,
	// k/m/n/overlap u16 each.
	helloBodyBytes = 4 + 1 + 2 + 2 + 8
	// acceptBodyBytes: version u8, numNodes u16.
	acceptBodyBytes = 1 + 2

	// MaxWirePayload caps a message payload on the wire. A 4K-wall
	// sub-picture is a few megabytes; 64 MiB leaves an order of magnitude of
	// headroom while bounding what a hostile length prefix can make the
	// receiver allocate.
	MaxWirePayload = 1 << 26
	// maxAbortMessage caps the abort cause string.
	maxAbortMessage = 4096
	// maxFrameBody bounds frameLen for every frame type.
	maxFrameBody = 1 + msgHeaderWireBytes + MaxWirePayload

	// Offsets of the routing fields within a raw frame (including the length
	// prefix), used by the hub to route without decoding.
	rawTypeOff = frameLenBytes
	rawDestOff = frameLenBytes + 1 + 4 // type, kind, flags, from
)

// Typed wire errors. Every decode failure wraps exactly one of these, so
// callers can classify with errors.Is without string matching.
var (
	// ErrFrameCorrupt marks a structurally invalid frame: unknown type,
	// impossible field value, or a body shorter than its own header claims.
	ErrFrameCorrupt = errors.New("cluster: corrupt wire frame")
	// ErrFrameTooLarge marks a length prefix beyond the protocol bound; the
	// receiver rejects it before allocating.
	ErrFrameTooLarge = errors.New("cluster: wire frame exceeds size bound")
	// ErrFrameTruncated marks a frame cut short by the end of input. On a
	// live link it is only an error if the connection closes mid-frame.
	ErrFrameTruncated = errors.New("cluster: truncated wire frame")
	// ErrHandshake marks a failed hello/accept exchange: bad magic, version
	// or geometry mismatch, or a peer that sent data before handshaking.
	ErrHandshake = errors.New("cluster: transport handshake failed")
	// ErrLinkLost marks a TCP connection that died mid-stream (reset,
	// timeout, or close with traffic pending).
	ErrLinkLost = errors.New("cluster: transport link lost")
)

// Hello is the client half of the handshake: the dialing node announces who
// it is and which wall geometry it was configured for, so mismatched
// processes fail fast instead of deadlocking mid-stream.
type Hello struct {
	Version  byte
	Node     int
	NumNodes int
	Grid     Grid
}

// Grid is the wall shape carried in the handshake: every process of a
// multi-process wall must agree on it. It also fixes the node layout, the
// one place node ids are derived: the root is node RootNode (0), splitter i
// is node 1+i, and the decoder of tile t is node 1+K+t.
type Grid struct {
	K, M, N, Overlap int
}

// RootNode is the node id of the wall's root.
const RootNode = 0

// NumNodes returns the wall's node count: the root, K splitters and M×N
// tile decoders.
func (g Grid) NumNodes() int { return 1 + g.K + g.M*g.N }

// SplitterNode returns the node id of splitter i.
func (g Grid) SplitterNode(i int) int { return 1 + i }

// TileNode returns the node id of tile t's decoder.
func (g Grid) TileNode(t int) int { return 1 + g.K + t }

// SplitterNodes returns the splitters' node ids in index order.
func (g Grid) SplitterNodes() []int { return nodeRange(g.SplitterNode(0), g.K) }

// TileNodes returns the decoders' node ids in tile order.
func (g Grid) TileNodes() []int { return nodeRange(g.TileNode(0), g.M*g.N) }

func nodeRange(first, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = first + i
	}
	return ids
}

// Accept is the hub half of the handshake.
type Accept struct {
	Version  byte
	NumNodes int
}

// Frame is one decoded wire frame, a value like the messages it carries.
// Type says which one of Msg, Hello, Accept and Abort is set.
type Frame struct {
	Type   byte
	Msg    Message
	Hello  Hello
	Accept Accept
	// Abort carries the remote abort cause, reconstructed so errors.Is
	// matches the same sentinel (ErrStalled, ErrLinkLost, ...) that the
	// aborting process observed.
	Abort error
}

// Abort cause classes carried in abort frames. The class byte survives the
// wire even though the error value itself cannot.
const (
	abortClassOther byte = iota
	abortClassStalled
	abortClassLinkLost
	abortClassHandshake
)

func abortClassOf(err error) byte {
	switch {
	case errors.Is(err, ErrStalled):
		return abortClassStalled
	case errors.Is(err, ErrLinkLost):
		return abortClassLinkLost
	case errors.Is(err, ErrHandshake):
		return abortClassHandshake
	}
	return abortClassOther
}

// remoteAbortError is an abort cause received over the wire: the original
// error string verbatim, matching the original sentinel via errors.Is.
type remoteAbortError struct {
	class byte
	msg   string
}

func (e *remoteAbortError) Error() string { return e.msg }

func (e *remoteAbortError) Is(target error) bool {
	switch e.class {
	case abortClassStalled:
		return target == ErrStalled
	case abortClassLinkLost:
		return target == ErrLinkLost
	case abortClassHandshake:
		return target == ErrHandshake
	}
	return false
}

// AppendHelloFrame appends a hello frame to dst.
func AppendHelloFrame(dst []byte, h Hello) []byte {
	dst = binary.BigEndian.AppendUint32(dst, 1+helloBodyBytes)
	dst = append(dst, frameHello)
	dst = binary.BigEndian.AppendUint32(dst, wireMagic)
	dst = append(dst, h.Version)
	dst = binary.BigEndian.AppendUint16(dst, uint16(h.Node))
	dst = binary.BigEndian.AppendUint16(dst, uint16(h.NumNodes))
	dst = binary.BigEndian.AppendUint16(dst, uint16(h.Grid.K))
	dst = binary.BigEndian.AppendUint16(dst, uint16(h.Grid.M))
	dst = binary.BigEndian.AppendUint16(dst, uint16(h.Grid.N))
	dst = binary.BigEndian.AppendUint16(dst, uint16(h.Grid.Overlap))
	return dst
}

// AppendAcceptFrame appends an accept frame to dst.
func AppendAcceptFrame(dst []byte, a Accept) []byte {
	dst = binary.BigEndian.AppendUint32(dst, 1+acceptBodyBytes)
	dst = append(dst, frameAccept)
	dst = append(dst, a.Version)
	dst = binary.BigEndian.AppendUint16(dst, uint16(a.NumNodes))
	return dst
}

// AppendAbortFrame appends an abort frame carrying cause to dst.
func AppendAbortFrame(dst []byte, cause error) []byte {
	msg := "unknown"
	if cause != nil {
		msg = cause.Error()
	}
	if len(msg) > maxAbortMessage {
		msg = msg[:maxAbortMessage]
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+1+len(msg)))
	dst = append(dst, frameAbort, abortClassOf(cause))
	return append(dst, msg...)
}

// AppendMessageFrame appends a message frame to dst. Field ranges are
// checked — node ids and sessions must fit u16/u32, the payload must fit
// MaxWirePayload — because a message that cannot round-trip must fail at the
// sender, not corrupt the peer.
func AppendMessageFrame(dst []byte, m *Message) ([]byte, error) {
	switch {
	case m.Kind >= numKinds:
		return dst, fmt.Errorf("%w: unknown kind %d", ErrFrameCorrupt, m.Kind)
	case m.From < 0 || m.From > 0xffff || m.To < 0 || m.To > 0xffff:
		return dst, fmt.Errorf("%w: node id out of range (%d -> %d)", ErrFrameCorrupt, m.From, m.To)
	case m.Session < 0 || int64(m.Session) > 0xffffffff:
		return dst, fmt.Errorf("%w: session %d out of range", ErrFrameCorrupt, m.Session)
	case int64(m.Seq) < -(1<<31) || int64(m.Seq) > 1<<31-1:
		return dst, fmt.Errorf("%w: seq %d out of range", ErrFrameCorrupt, m.Seq)
	case int64(m.Tag) < -(1<<31) || int64(m.Tag) > 1<<31-1:
		return dst, fmt.Errorf("%w: tag %d out of range", ErrFrameCorrupt, m.Tag)
	case len(m.Payload) > MaxWirePayload:
		return dst, fmt.Errorf("%w: payload %d bytes", ErrFrameTooLarge, len(m.Payload))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+msgHeaderWireBytes+len(m.Payload)))
	dst = append(dst, frameMessage, byte(m.Kind), m.Flags)
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.From))
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.To))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Session))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.Seq)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.Tag)))
	dst = binary.BigEndian.AppendUint64(dst, 0) // reserved
	return append(dst, m.Payload...), nil
}

// parseMessageBody decodes the fixed header and payload of a message frame.
// The payload slice is drawn from the slab pool (exact-class capacity), so
// the final consumer can PutSlab it — the receive path stays zero-alloc in
// steady state. A non-zero reserved field is corrupt: no sender writes one,
// and accepting it would decode two byte strings to the same message.
func parseMessageBody(body []byte) (Message, error) {
	if len(body) < msgHeaderWireBytes {
		return Message{}, fmt.Errorf("%w: message body %d bytes", ErrFrameCorrupt, len(body))
	}
	kind := MsgKind(body[0])
	if kind >= numKinds {
		return Message{}, fmt.Errorf("%w: unknown message kind %d", ErrFrameCorrupt, kind)
	}
	if r := binary.BigEndian.Uint64(body[18:26]); r != 0 {
		return Message{}, fmt.Errorf("%w: reserved header field %#x", ErrFrameCorrupt, r)
	}
	m := Message{
		Kind:    kind,
		Flags:   body[1],
		From:    int(binary.BigEndian.Uint16(body[2:4])),
		To:      int(binary.BigEndian.Uint16(body[4:6])),
		Session: int(binary.BigEndian.Uint32(body[6:10])),
		Seq:     int(int32(binary.BigEndian.Uint32(body[10:14]))),
		Tag:     int(int32(binary.BigEndian.Uint32(body[14:18]))),
	}
	if payload := body[msgHeaderWireBytes:]; len(payload) > 0 {
		m.Payload = append(GetSlab(len(payload)), payload...)
	}
	return m, nil
}

func parseHelloBody(body []byte) (Hello, error) {
	if len(body) != helloBodyBytes {
		return Hello{}, fmt.Errorf("%w: hello body %d bytes", ErrFrameCorrupt, len(body))
	}
	if binary.BigEndian.Uint32(body) != wireMagic {
		return Hello{}, fmt.Errorf("%w: bad hello magic %#x", ErrHandshake, binary.BigEndian.Uint32(body))
	}
	// An unexpected version is reported by the handshake policy, not the
	// decoder: the frame itself is well-formed.
	return Hello{
		Version:  body[4],
		Node:     int(binary.BigEndian.Uint16(body[5:7])),
		NumNodes: int(binary.BigEndian.Uint16(body[7:9])),
		Grid: Grid{
			K:       int(binary.BigEndian.Uint16(body[9:11])),
			M:       int(binary.BigEndian.Uint16(body[11:13])),
			N:       int(binary.BigEndian.Uint16(body[13:15])),
			Overlap: int(binary.BigEndian.Uint16(body[15:17])),
		},
	}, nil
}

func parseAcceptBody(body []byte) (Accept, error) {
	if len(body) != acceptBodyBytes {
		return Accept{}, fmt.Errorf("%w: accept body %d bytes", ErrFrameCorrupt, len(body))
	}
	return Accept{Version: body[0], NumNodes: int(binary.BigEndian.Uint16(body[1:3]))}, nil
}

func parseAbortBody(body []byte) (error, error) {
	if len(body) < 1 {
		return nil, fmt.Errorf("%w: empty abort body", ErrFrameCorrupt)
	}
	if len(body) > 1+maxAbortMessage {
		return nil, fmt.Errorf("%w: abort message %d bytes", ErrFrameTooLarge, len(body)-1)
	}
	return &remoteAbortError{class: body[0], msg: string(body[1:])}, nil
}

func decodeFrameBody(typ byte, body []byte) (fr Frame, err error) {
	fr.Type = typ
	switch typ {
	case frameMessage:
		fr.Msg, err = parseMessageBody(body)
	case frameHello:
		fr.Hello, err = parseHelloBody(body)
	case frameAccept:
		fr.Accept, err = parseAcceptBody(body)
	case frameAbort:
		fr.Abort, err = parseAbortBody(body)
	default:
		err = fmt.Errorf("%w: unknown frame type %#x", ErrFrameCorrupt, typ)
	}
	if err != nil {
		return Frame{}, err
	}
	return fr, nil
}

// checkFrameLen validates a length prefix before anything is allocated.
func checkFrameLen(n uint32) error {
	if n < 1 {
		return fmt.Errorf("%w: zero-length frame", ErrFrameCorrupt)
	}
	if n > maxFrameBody {
		return fmt.Errorf("%w: frame body %d bytes", ErrFrameTooLarge, n)
	}
	return nil
}

// DecodeFrame decodes one frame from the front of b, returning the frame and
// the number of bytes consumed. It is the buffer-oriented twin of the
// streaming reader — the fuzz target drives it — and never allocates more
// than the validated frame length.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < frameLenBytes {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes of length prefix", ErrFrameTruncated, len(b))
	}
	n := binary.BigEndian.Uint32(b)
	if err := checkFrameLen(n); err != nil {
		return Frame{}, 0, err
	}
	if uint32(len(b)-frameLenBytes) < n {
		return Frame{}, 0, fmt.Errorf("%w: frame wants %d body bytes, have %d", ErrFrameTruncated, n, len(b)-frameLenBytes)
	}
	body := b[frameLenBytes : frameLenBytes+int(n)]
	fr, err := decodeFrameBody(body[0], body[1:])
	if err != nil {
		return Frame{}, 0, err
	}
	return fr, frameLenBytes + int(n), nil
}

// frameReader reads frames from one stream. It owns its header scratch (a
// scratch array on the reading goroutine's stack would escape through
// io.ReadFull once per frame), so a message frame allocates nothing but its
// payload's slab, and only the rare control frames allocate a body.
type frameReader struct {
	hdr [frameLenBytes + 1 + msgHeaderWireBytes]byte
}

// read reads one frame from r. Message payloads land in their own slab-pool
// slice. io.EOF is returned verbatim when the stream ends cleanly between
// frames, so callers can tell an orderly close from a mid-frame cut
// (ErrFrameTruncated).
func (fr *frameReader) read(r io.Reader) (Frame, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(r, hdr[:frameLenBytes]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return Frame{}, fmt.Errorf("%w: stream ended inside length prefix", ErrFrameTruncated)
		}
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:frameLenBytes])
	if err := checkFrameLen(n); err != nil {
		return Frame{}, err
	}
	if _, err := io.ReadFull(r, hdr[frameLenBytes:frameLenBytes+1]); err != nil {
		return Frame{}, truncOrIO(err)
	}
	typ := hdr[frameLenBytes]
	if typ == frameMessage && n >= 1+msgHeaderWireBytes {
		// Fast path: header into the scratch array, payload straight into a
		// slab of its own class so the consumer's PutSlab recycles it.
		if _, err := io.ReadFull(r, hdr[frameLenBytes+1:]); err != nil {
			return Frame{}, truncOrIO(err)
		}
		payloadLen := int(n) - 1 - msgHeaderWireBytes
		var payload []byte
		if payloadLen > 0 {
			payload = GetSlab(payloadLen)[:payloadLen]
			if _, err := io.ReadFull(r, payload); err != nil {
				PutSlab(payload)
				return Frame{}, truncOrIO(err)
			}
		}
		m, err := parseMessageBody(hdr[frameLenBytes+1:]) // header only; payload attached below
		if err != nil {
			PutSlab(payload)
			return Frame{}, err
		}
		m.Payload = payload
		return Frame{Type: frameMessage, Msg: m}, nil
	}
	body := make([]byte, int(n)-1)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, truncOrIO(err)
	}
	return decodeFrameBody(typ, body)
}

func truncOrIO(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: stream ended mid-frame", ErrFrameTruncated)
	}
	return err
}
