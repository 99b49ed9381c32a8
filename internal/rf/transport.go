package rf

import "time"

// Transport is the device→host channel abstraction: anything that can carry
// one telemetry payload towards the host side. The RF channel model (*Link)
// is the default implementation — with a nil rng it is an ideal in-process
// channel; real network backends plug in behind the same interface.
//
// Send returns the virtual time at which the transmission completes
// (delivery, or silent loss for lossy transports).
//
// Ownership: the payload belongs to the caller and is only valid for the
// duration of the Send/SendTagged call. A transport that needs the bytes
// later (queueing, retransmission, deferred delivery) must copy them —
// *Link and *ARQ do. This lets senders marshal into a reusable scratch
// buffer and transmit allocation-free (see Message.AppendBinary).
type Transport interface {
	Send(payload []byte) (time.Duration, error)
}

// VersionedSender is implemented by transports that can account the payload
// wire-format version the caller passes explicitly, instead of sniffing it
// out of the payload bytes (which an adversarial v0 payload can fool).
type VersionedSender interface {
	SendTagged(payload []byte, ver PayloadVersion) (time.Duration, error)
}

var (
	_ Transport       = (*Link)(nil)
	_ Transport       = (*ARQ)(nil)
	_ VersionedSender = (*Link)(nil)
	_ VersionedSender = (*ARQ)(nil)
)
