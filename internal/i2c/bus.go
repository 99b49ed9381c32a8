// Package i2c simulates the inter-integrated-circuit bus that connects the
// Smart-Its add-on board to the two Barton BT96040 chip-on-glass displays
// (paper Section 4.4: "They are connected to the Smart-Its via the
// I2C-bus").
//
// The model is transaction-level: a master issues write and read
// transactions against 7-bit addresses; slaves either acknowledge and
// process the bytes or the transaction fails with ErrNack. Timing is
// accounted per transferred byte so firmware-cycle costs are realistic.
package i2c

import (
	"errors"
	"fmt"
	"time"
)

// Bus errors.
var (
	// ErrNack is returned when no slave acknowledges the address.
	ErrNack = errors.New("i2c: address not acknowledged")
	// ErrAddressInUse is returned when attaching a second slave at an
	// occupied address.
	ErrAddressInUse = errors.New("i2c: address already in use")
	// ErrInvalidAddress is returned for addresses outside the 7-bit range
	// or inside the reserved ranges.
	ErrInvalidAddress = errors.New("i2c: invalid 7-bit address")
)

// Slave is a device attached to the bus.
type Slave interface {
	// WriteBytes delivers a master→slave write transaction payload.
	WriteBytes(data []byte) error
	// ReadBytes serves a slave→master read of n bytes.
	ReadBytes(n int) ([]byte, error)
}

// Stats counts bus activity.
type Stats struct {
	Writes      uint64
	Reads       uint64
	Bytes       uint64
	Nacks       uint64
	BusTime     time.Duration
	PerSlaveOps map[byte]uint64
}

// Bus is a single-master I2C bus.
type Bus struct {
	// slaves is the slave table, found by linear scan: a board carries two
	// or three slaves, so a scan of a short slice beats hashing the address
	// on every transaction. An entry outlives Detach (slave == nil) so its
	// op count stays in Stats; a later Attach at the address reuses it.
	slaves []slaveEntry
	// clockHz is the bus clock; standard mode is 100 kHz.
	clockHz int
	stats   Stats
}

// slaveEntry is one address of the slave table.
type slaveEntry struct {
	addr  byte
	slave Slave // nil once detached
	ops   uint64
}

// NewBus returns a bus running at the given clock rate (Hz). A rate <= 0
// selects standard mode (100 kHz).
func NewBus(clockHz int) *Bus {
	if clockHz <= 0 {
		clockHz = 100_000
	}
	return &Bus{clockHz: clockHz}
}

// entry returns the table entry for addr, or nil.
func (b *Bus) entry(addr byte) *slaveEntry {
	for i := range b.slaves {
		if b.slaves[i].addr == addr {
			return &b.slaves[i]
		}
	}
	return nil
}

// slave returns the entry of the slave attached at addr, or nil.
func (b *Bus) slave(addr byte) *slaveEntry {
	if e := b.entry(addr); e != nil && e.slave != nil {
		return e
	}
	return nil
}

// Attach registers a slave at a 7-bit address.
func (b *Bus) Attach(addr byte, s Slave) error {
	if addr > 0x77 || addr < 0x08 {
		return fmt.Errorf("%w: %#x", ErrInvalidAddress, addr)
	}
	e := b.entry(addr)
	switch {
	case e == nil:
		b.slaves = append(b.slaves, slaveEntry{addr: addr, slave: s})
	case e.slave != nil:
		return fmt.Errorf("%w: %#x", ErrAddressInUse, addr)
	default:
		e.slave = s
	}
	return nil
}

// Detach removes the slave at addr, if any. The address keeps its op
// count in Stats.
func (b *Bus) Detach(addr byte) {
	if e := b.entry(addr); e != nil {
		e.slave = nil
	}
}

// Addresses returns the number of attached slaves.
func (b *Bus) Addresses() int {
	n := 0
	for _, e := range b.slaves {
		if e.slave != nil {
			n++
		}
	}
	return n
}

// Write issues a master→slave write transaction.
func (b *Bus) Write(addr byte, data []byte) error {
	e := b.slave(addr)
	if e == nil {
		b.stats.Nacks++
		return fmt.Errorf("%w: %#x", ErrNack, addr)
	}
	b.stats.Writes++
	b.account(e, len(data))
	if err := e.slave.WriteBytes(data); err != nil {
		return fmt.Errorf("i2c: write to %#x: %w", addr, err)
	}
	return nil
}

// Read issues a slave→master read transaction of n bytes.
func (b *Bus) Read(addr byte, n int) ([]byte, error) {
	e := b.slave(addr)
	if e == nil {
		b.stats.Nacks++
		return nil, fmt.Errorf("%w: %#x", ErrNack, addr)
	}
	b.stats.Reads++
	b.account(e, n)
	data, err := e.slave.ReadBytes(n)
	if err != nil {
		return nil, fmt.Errorf("i2c: read from %#x: %w", addr, err)
	}
	return data, nil
}

// Probe reports whether a slave acknowledges the address.
func (b *Bus) Probe(addr byte) bool { return b.slave(addr) != nil }

// Stats returns a copy of the accumulated bus statistics. PerSlaveOps is a
// fresh map holding every address that has carried a transaction,
// detached ones included.
func (b *Bus) Stats() Stats {
	cp := b.stats
	cp.PerSlaveOps = make(map[byte]uint64, len(b.slaves))
	for _, e := range b.slaves {
		if e.ops > 0 {
			cp.PerSlaveOps[e.addr] = e.ops
		}
	}
	return cp
}

// account records byte counts and bus occupancy time. Each byte costs nine
// clock cycles (8 data bits + ACK), plus one address byte per transaction.
func (b *Bus) account(e *slaveEntry, payload int) {
	bytes := uint64(payload) + 1
	b.stats.Bytes += bytes
	cycles := bytes * 9
	b.stats.BusTime += time.Duration(float64(cycles) / float64(b.clockHz) * float64(time.Second))
	e.ops++
}
