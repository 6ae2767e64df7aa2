package p2p

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame: readFrame never panics; it accepts only a known type
// and nothing after an error frame's text; and an accepted frame is the
// canonical encoding of what it decodes to, so writeFrame → readFrame
// round-trips it.
func FuzzReadFrame(f *testing.F) {
	seed := func(fr frame) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(frame{typ: frameMsg, msg: Message{Kind: KindBlock, From: "Doctor", Payload: []byte{0, 1, 2}}})
	seed(frame{typ: frameReq, msg: Message{Kind: KindSync, From: "Patient", Payload: []byte(`{"shareId":"S"}`)}})
	seed(frame{typ: frameResp, msg: Message{Kind: KindSync}})
	seed(frame{typ: frameErr, err: "core: stale data"})
	seed(frame{typ: frameNoHandler})
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint64(nil, 0))
	f.Add(append(binary.BigEndian.AppendUint64(nil, 4), 6, 0, 0, 0))
	f.Add(append(binary.BigEndian.AppendUint64(nil, maxFrameSize), 1))

	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := readFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if fr.typ < frameMsg || fr.typ > frameNoHandler {
			t.Fatalf("accepted unknown frame type %d", fr.typ)
		}
		n := 8 + binary.BigEndian.Uint64(raw)
		var canon bytes.Buffer
		if err := writeFrame(&canon, fr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon.Bytes(), raw[:n]) {
			t.Fatalf("accepted a frame that is not the canonical encoding of what it decodes to:\n%x\n%x", raw[:n], canon.Bytes())
		}
		re, err := readFrame(bytes.NewReader(canon.Bytes()))
		if err != nil || re.typ != fr.typ || re.err != fr.err || re.msg.Kind != fr.msg.Kind ||
			re.msg.From != fr.msg.From || !bytes.Equal(re.msg.Payload, fr.msg.Payload) {
			t.Fatalf("round trip: %+v, %v; want %+v", re, err, fr)
		}
		if fr.typ == frameErr || fr.typ == frameNoHandler {
			long := binary.BigEndian.AppendUint64(nil, n-8+1)
			long = append(append(long, raw[8:n]...), 0)
			if _, err := readFrame(bytes.NewReader(long)); err == nil {
				t.Fatal("accepted a byte after an error frame's text")
			}
		}
	})
}
