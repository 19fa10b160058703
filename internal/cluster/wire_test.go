package cluster

import (
	"bytes"
	"errors"
	"testing"
)

func mustEncodeMsg(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := AppendMessageFrame(nil, m)
	if err != nil {
		t.Fatalf("AppendMessageFrame: %v", err)
	}
	return b
}

func TestWireMessageRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Kind: MsgPicture, From: 0, To: 1, Seq: 0, Tag: 2, Session: 1, Payload: []byte("picture bits")},
		{Kind: MsgAck, From: 3, To: 0, Seq: DrainAckSeq, Session: 7},
		{Kind: MsgSubPicture, From: 1, To: 5, Seq: -1, Tag: -3, Flags: FlagSessionFinal, Payload: make([]byte, 100000)},
		{Kind: MsgBlocks, From: 65535, To: 65535, Seq: 1<<31 - 1, Tag: -(1 << 31), Session: 0xffffffff},
	}
	for _, m := range msgs {
		b := mustEncodeMsg(t, m)
		fr, n, err := DecodeFrame(b)
		if err != nil || n != len(b) {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		got := fr.Msg
		if got.Kind != m.Kind || got.From != m.From || got.To != m.To || got.Seq != m.Seq ||
			got.Tag != m.Tag || got.Session != m.Session || got.Flags != m.Flags {
			t.Fatalf("header mismatch: got %+v want %+v", got, m)
		}
		if !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("payload mismatch: %d vs %d bytes", len(got.Payload), len(m.Payload))
		}
	}
}

// TestWireReservedField: the eight header bytes that once carried a per-link
// sequence number are written as zero and must read as zero. Accepting any
// other value would decode two byte strings to the same message, so a
// decoded frame would no longer re-encode to its own bytes.
func TestWireReservedField(t *testing.T) {
	b := mustEncodeMsg(t, &Message{Kind: MsgAck, To: 1, Seq: 4})
	const off = frameLenBytes + 1 + 18 // reserved u64 after kind..tag
	for i := off; i < off+8; i++ {
		if b[i] != 0 {
			t.Fatalf("reserved byte %d = %#x, want 0", i-off, b[i])
		}
	}
	b[off+7] = 1
	if _, _, err := DecodeFrame(b); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("non-zero reserved field: err %v, want ErrFrameCorrupt", err)
	}
	var rd frameReader
	if _, err := rd.read(bytes.NewReader(b)); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("streaming reader, non-zero reserved field: err %v, want ErrFrameCorrupt", err)
	}
}

func TestWireMessageRangeChecks(t *testing.T) {
	bad := []*Message{
		{Kind: numKinds},
		{Kind: MsgAck, From: -1},
		{Kind: MsgAck, To: 1 << 16},
		{Kind: MsgAck, Session: -1},
	}
	for _, m := range bad {
		if _, err := AppendMessageFrame(nil, m); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("%+v: err %v, want ErrFrameCorrupt", m, err)
		}
	}
	big := &Message{Kind: MsgAck, Payload: make([]byte, MaxWirePayload+1)}
	if _, err := AppendMessageFrame(nil, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize payload: err %v, want ErrFrameTooLarge", err)
	}
}

func TestWireHandshakeRoundTrip(t *testing.T) {
	h := Hello{Version: WireVersion, Node: 3, NumNodes: 10, Grid: Grid{K: 2, M: 2, N: 2, Overlap: 32}}
	fr, n, err := DecodeFrame(AppendHelloFrame(nil, h))
	if err != nil || fr.Type != frameHello {
		t.Fatalf("hello decode: %v", err)
	}
	if fr.Hello != h || n != frameLenBytes+1+helloBodyBytes {
		t.Fatalf("hello round trip: %+v (n=%d)", fr.Hello, n)
	}
	a := Accept{Version: WireVersion, NumNodes: 10}
	fr, _, err = DecodeFrame(AppendAcceptFrame(nil, a))
	if err != nil || fr.Type != frameAccept || fr.Accept != a {
		t.Fatalf("accept round trip: %+v, %v", fr, err)
	}
}

func TestWireAbortRoundTrip(t *testing.T) {
	for _, cause := range []error{ErrStalled, ErrLinkLost, ErrHandshake, errors.New("custom failure")} {
		fr, _, err := DecodeFrame(AppendAbortFrame(nil, cause))
		if err != nil || fr.Type != frameAbort || fr.Abort == nil {
			t.Fatalf("abort decode: %v", err)
		}
		if fr.Abort.Error() != cause.Error() {
			t.Fatalf("abort message %q, want %q", fr.Abort.Error(), cause.Error())
		}
		for _, sentinel := range []error{ErrStalled, ErrLinkLost, ErrHandshake} {
			if errors.Is(fr.Abort, sentinel) != errors.Is(cause, sentinel) {
				t.Fatalf("abort class of %v lost %v matching across the wire", cause, sentinel)
			}
		}
	}
}

func TestWireTruncation(t *testing.T) {
	full := mustEncodeMsg(t, &Message{Kind: MsgSubPicture, To: 1, Seq: 5, Payload: []byte("0123456789")})
	for cut := 0; cut < len(full); cut++ {
		_, _, err := DecodeFrame(full[:cut])
		if !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("cut at %d: err %v, want ErrFrameTruncated", cut, err)
		}
	}
	if fr, _, err := DecodeFrame(append(append([]byte{}, full...), 0xEE)); err != nil || fr.Type != frameMessage {
		t.Fatalf("trailing garbage must not affect a complete frame: %v", err)
	}
}

func TestWireHostileLengths(t *testing.T) {
	// A length prefix beyond the bound is rejected before allocation.
	if _, _, err := DecodeFrame([]byte{0xff, 0xff, 0xff, 0xff, frameMessage}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("huge length: %v, want ErrFrameTooLarge", err)
	}
	if _, _, err := DecodeFrame([]byte{0, 0, 0, 0}); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("zero length: %v, want ErrFrameCorrupt", err)
	}
	if _, _, err := DecodeFrame([]byte{0, 0, 0, 2, 0x7F, 0x00}); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("unknown type: %v, want ErrFrameCorrupt", err)
	}
}

// FuzzFrameDecode is fuzz target #10: the frame decoder over hostile input.
// Contract under fuzzing: never panic, never allocate beyond the input-
// bounded frame size, fail only with typed errors, and decode successfully
// only frames that re-encode to the same bytes (messages, hello, accept) or
// the same semantics (abort).
func FuzzFrameDecode(f *testing.F) {
	f.Add(mustEncodeFuzz(&Message{Kind: MsgPicture, To: 1, Seq: 3, Tag: 2, Session: 9, Payload: []byte("payload")}))
	f.Add(mustEncodeFuzz(&Message{Kind: MsgAck, To: 0, Seq: DrainAckSeq, Session: 4}))
	f.Add(AppendHelloFrame(nil, Hello{Version: WireVersion, Node: 3, NumNodes: 10, Grid: Grid{K: 2, M: 2, N: 2, Overlap: 32}}))
	f.Add(AppendHelloFrame(nil, Hello{Version: WireVersion + 1, Node: 0, NumNodes: 2}))
	f.Add(AppendAcceptFrame(nil, Accept{Version: WireVersion, NumNodes: 5}))
	f.Add(AppendAbortFrame(nil, ErrStalled))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameMessage})
	f.Add([]byte{0, 0, 0, 2, frameHello, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			if !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, ErrFrameTooLarge) &&
				!errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrHandshake) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if n < frameLenBytes+1 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		switch fr.Type {
		case frameMessage:
			re, err := AppendMessageFrame(nil, &fr.Msg)
			if err != nil {
				t.Fatalf("decoded message does not re-encode: %v", err)
			}
			if !bytes.Equal(re, b[:n]) {
				t.Fatalf("message frame not canonical: %x vs %x", re, b[:n])
			}
			if fr.Msg.Payload != nil {
				PutSlab(fr.Msg.Payload)
			}
		case frameHello:
			if !bytes.Equal(AppendHelloFrame(nil, fr.Hello), b[:n]) {
				t.Fatal("hello frame not canonical")
			}
		case frameAccept:
			if !bytes.Equal(AppendAcceptFrame(nil, fr.Accept), b[:n]) {
				t.Fatal("accept frame not canonical")
			}
		case frameAbort:
			if fr.Abort == nil || len(fr.Abort.Error()) > maxAbortMessage {
				t.Fatalf("abort frame decoded to %v", fr.Abort)
			}
			// Round-trip semantics: class and message survive re-encoding.
			fr2, _, err := DecodeFrame(AppendAbortFrame(nil, fr.Abort))
			if err != nil || fr2.Abort.Error() != fr.Abort.Error() {
				t.Fatalf("abort re-encode: %v / %v", fr2, err)
			}
			for _, sentinel := range []error{ErrStalled, ErrLinkLost, ErrHandshake} {
				if errors.Is(fr2.Abort, sentinel) != errors.Is(fr.Abort, sentinel) {
					t.Fatalf("abort class changed across re-encode for %v", sentinel)
				}
			}
		default:
			t.Fatalf("decoder accepted unknown frame type %#x", fr.Type)
		}
	})
}

func mustEncodeFuzz(m *Message) []byte {
	b, err := AppendMessageFrame(nil, m)
	if err != nil {
		panic(err)
	}
	return b
}
