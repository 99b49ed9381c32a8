package rf

import (
	"encoding/binary"
	"fmt"
	"time"
)

// MsgKind identifies a telemetry message type.
type MsgKind byte

// Telemetry message kinds emitted by the DistScroll firmware.
const (
	// MsgScroll reports that the distance mapping moved the cursor to a
	// new entry index.
	MsgScroll MsgKind = iota + 1
	// MsgSelect reports a button selection of the current entry.
	MsgSelect
	// MsgLevel reports that the menu level changed (enter / back).
	MsgLevel
	// MsgState is the periodic debug state shown on the bottom display.
	MsgState
	// MsgHeartbeat is a keep-alive.
	MsgHeartbeat
	// MsgAck is the host→device cumulative acknowledgement of the reliable
	// (ARQ) stream: Seq is the highest sequence number such that every frame
	// up to and including it has been delivered in order. It travels on the
	// host→device ack Link (Link.SendAck), never device→host.
	MsgAck
	// MsgSkip is the reliable sender's abandonment notice: Seq is the last
	// and Index the count of consecutive sequence numbers the sender has
	// dropped (queue overflow or retry budget) and will never transmit. It
	// is injected into the stream at the hole's position, so the sequence
	// space stays contiguous and the receiver advances past the hole with
	// certainty instead of guessing from retransmission patterns.
	MsgSkip
)

// String returns the message kind name.
func (k MsgKind) String() string {
	switch k {
	case MsgScroll:
		return "scroll"
	case MsgSelect:
		return "select"
	case MsgLevel:
		return "level"
	case MsgState:
		return "state"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgAck:
		return "ack"
	case MsgSkip:
		return "skip"
	default:
		return fmt.Sprintf("msg(%d)", byte(k))
	}
}

// Message is a decoded telemetry message.
type Message struct {
	Kind MsgKind
	// Device identifies the sending DistScroll when a host serves a fleet
	// of them. Zero is the conventional single-device id; it is also what
	// legacy v0 frames (which carry no device field) decode to.
	Device uint32
	// Seq is a wrapping sequence number, used to measure loss.
	Seq uint16
	// At is the firmware timestamp (virtual milliseconds, wrapping).
	AtMillis uint32

	// Index is the entry index for MsgScroll/MsgSelect, the depth for
	// MsgLevel.
	Index int16
	// Voltage is the filtered sensor voltage in millivolts (MsgState).
	VoltageMV uint16
	// Island is the active island index, -1 when between islands (MsgState).
	Island int16
	// Button is the button id for MsgSelect.
	Button byte
	// Context is the encoded orientation/context byte (MsgState); see
	// the context package for the encoding.
	Context byte
}

// Wire formats. The original (v0) payload starts directly with the kind
// byte and carries no device id; the current (v1) payload is prefixed with
// a version magic and a big-endian uint32 device id so a host hub can
// demultiplex a fleet of devices sharing one receiver. The magic byte is
// chosen well outside the valid kind range (1..7), so the two versions can
// be told apart from the first payload byte — for well-formed traffic. An
// adversarial v0 payload may still start with the magic byte, which is why
// VersionOf also checks the payload length and why senders that know their
// version pass it explicitly (VersionedSender).
const (
	// verMagicV1 marks a version-1 payload. It never collides with a v0
	// payload, whose first byte is a MsgKind.
	verMagicV1 = 0xD5

	msgLenV0 = 1 + 2 + 4 + 2 + 2 + 2 + 1 + 1
	msgLenV1 = 1 + 4 + msgLenV0
)

// PayloadVersion identifies the wire-format version of a telemetry payload.
type PayloadVersion uint8

// Payload wire-format versions.
const (
	// PayloadV0 is the legacy device-less layout.
	PayloadV0 PayloadVersion = 0
	// PayloadV1 is the fleet layout: version magic + device id + v0 body.
	PayloadV1 PayloadVersion = 1
)

// VersionOf classifies a payload's wire-format version. Unlike a bare
// first-byte sniff, it also requires a v1 payload to be long enough to carry
// the v1 header, so a legacy v0 payload whose first byte happens to equal
// the version magic is still classified as v0. Senders that marshalled the
// payload themselves should pass the version explicitly instead (see
// VersionedSender); VersionOf is the best-effort fallback for opaque
// payloads.
func VersionOf(payload []byte) PayloadVersion {
	if len(payload) >= msgLenV1 && payload[0] == verMagicV1 {
		return PayloadV1
	}
	return PayloadV0
}

// PayloadSeq extracts the wrapping sequence number from a marshalled
// telemetry payload without decoding the whole message. It reports false
// for payloads too short to carry one. The ARQ layer uses it to match
// cumulative acks against in-flight frames.
func PayloadSeq(payload []byte) (uint16, bool) {
	switch VersionOf(payload) {
	case PayloadV1:
		return binary.BigEndian.Uint16(payload[6:8]), true
	default:
		if len(payload) >= msgLenV0 {
			return binary.BigEndian.Uint16(payload[1:3]), true
		}
		return 0, false
	}
}

// PayloadDevice extracts the device id from a marshalled telemetry payload
// without decoding the whole message. Legacy v0 payloads carry no device
// field and report the conventional zero id, as does anything too short to
// classify — the result is best-effort routing information, never a parse.
func PayloadDevice(payload []byte) uint32 {
	if VersionOf(payload) == PayloadV1 {
		return binary.BigEndian.Uint32(payload[1:5])
	}
	return 0
}

// seqLE reports a <= b in wrapping uint16 sequence space: the distance from
// a forward to b is less than half the space.
func seqLE(a, b uint16) bool { return b-a < 0x8000 }

// AppendBinary appends the fixed-size v1 wire encoding of m to dst and
// returns the extended slice. It is the one message encoder: a transmitter
// that keeps a per-device scratch buffer (`buf = m.AppendBinary(buf[:0])`)
// pays nothing per message once the buffer has warmed up. The legacy v0
// layout is the same bytes without the 5-byte v1 header (magic + device).
func (m Message) AppendBinary(dst []byte) []byte {
	dst = grow(dst, msgLenV1)
	buf := dst[len(dst)-msgLenV1:]
	buf[0] = verMagicV1
	binary.BigEndian.PutUint32(buf[1:], m.Device)
	m.putV0Body(buf[5:])
	return dst
}

// grow extends dst by n bytes, reusing capacity when it suffices.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst[:len(dst)+n]
	}
	out := make([]byte, len(dst)+n, 2*(len(dst)+n))
	copy(out, dst)
	return out
}

func (m Message) putV0Body(buf []byte) {
	buf[0] = byte(m.Kind)
	binary.BigEndian.PutUint16(buf[1:], m.Seq)
	binary.BigEndian.PutUint32(buf[3:], m.AtMillis)
	binary.BigEndian.PutUint16(buf[7:], uint16(m.Index))
	binary.BigEndian.PutUint16(buf[9:], m.VoltageMV)
	binary.BigEndian.PutUint16(buf[11:], uint16(m.Island))
	buf[13] = m.Button
	buf[14] = m.Context
}

// Decode decodes a v1 or legacy v0 payload in place, selecting the version
// from the first byte, and reports whether it was well formed (long enough
// for its version). Legacy v0 payloads decode with Device zero. It builds
// no error value, so a storm of corrupt frames on a demux hot path costs a
// counter increment per frame, not a garbage-collected error each.
func (m *Message) Decode(data []byte) bool {
	if len(data) >= 1 && data[0] == verMagicV1 {
		if len(data) < msgLenV1 {
			return false
		}
		m.Device = binary.BigEndian.Uint32(data[1:])
		m.getV0Body(data[5:])
		return true
	}
	if len(data) < msgLenV0 {
		return false
	}
	m.Device = 0
	m.getV0Body(data)
	return true
}

func (m *Message) getV0Body(data []byte) {
	m.Kind = MsgKind(data[0])
	m.Seq = binary.BigEndian.Uint16(data[1:])
	m.AtMillis = binary.BigEndian.Uint32(data[3:])
	m.Index = int16(binary.BigEndian.Uint16(data[7:]))
	m.VoltageMV = binary.BigEndian.Uint16(data[9:])
	m.Island = int16(binary.BigEndian.Uint16(data[11:]))
	m.Button = data[13]
	m.Context = data[14]
}

// Timestamp converts the firmware millisecond counter to a duration.
func (m Message) Timestamp() time.Duration {
	return time.Duration(m.AtMillis) * time.Millisecond
}
