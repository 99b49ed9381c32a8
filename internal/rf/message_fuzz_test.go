package rf

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzMessageDecode pins the telemetry message codec at its byte-parsing
// boundary. For any input that Decode accepts:
//
//   - re-encoding the decoded message reproduces the bytes Decode consumed
//     (AppendBinary for a v1 payload, v0Payload for a v0 one), so
//     decoding loses nothing;
//   - PayloadSeq and PayloadDevice, the routing fast paths that skip the
//     full decode, agree with the decoded fields.
//
// The input also seeds an arbitrary Message (zero-padded to a full v1
// payload's worth of field bytes), which must round-trip exactly through
// AppendBinary and Decode.
//
// The seed corpus in testdata/fuzz covers a v1 and a v0 payload, both
// truncated by one byte, the 15-byte v0-length payload starting with the
// v1 magic byte from TestARQAdversarialPayloadSkip, and an empty input.
func FuzzMessageDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if m.Decode(data) {
			var enc []byte
			if data[0] == verMagicV1 {
				enc = m.AppendBinary(nil)
			} else {
				enc = v0Payload(m)
			}
			if !bytes.Equal(enc, data[:len(enc)]) {
				t.Fatalf("re-encoding %+v gives %x, decoded from %x", m, enc, data[:len(enc)])
			}
			if seq, ok := PayloadSeq(data); !ok || seq != m.Seq {
				t.Fatalf("PayloadSeq = %d,%v, decoded seq %d", seq, ok, m.Seq)
			}
			if dev := PayloadDevice(data); dev != m.Device {
				t.Fatalf("PayloadDevice = %d, decoded device %d", dev, m.Device)
			}
		}

		var b [msgLenV1]byte
		copy(b[:], data)
		want := Message{
			Kind:      MsgKind(b[0]),
			Device:    binary.BigEndian.Uint32(b[1:]),
			Seq:       binary.BigEndian.Uint16(b[5:]),
			AtMillis:  binary.BigEndian.Uint32(b[7:]),
			Index:     int16(binary.BigEndian.Uint16(b[11:])),
			VoltageMV: binary.BigEndian.Uint16(b[13:]),
			Island:    int16(binary.BigEndian.Uint16(b[15:])),
			Button:    b[17],
			Context:   b[18],
		}
		var got Message
		if !got.Decode(want.AppendBinary(nil)) || got != want {
			t.Fatalf("Decode(AppendBinary(%+v)) = %+v", want, got)
		}
	})
}
