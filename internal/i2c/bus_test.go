package i2c

import (
	"errors"
	"testing"
)

type echoSlave struct {
	written [][]byte
	reply   []byte
	fail    error
}

func (s *echoSlave) WriteBytes(data []byte) error {
	if s.fail != nil {
		return s.fail
	}
	cp := append([]byte(nil), data...)
	s.written = append(s.written, cp)
	return nil
}

func (s *echoSlave) ReadBytes(n int) ([]byte, error) {
	if s.fail != nil {
		return nil, s.fail
	}
	if n > len(s.reply) {
		n = len(s.reply)
	}
	return s.reply[:n], nil
}

func TestAttachAndWrite(t *testing.T) {
	b := NewBus(0)
	s := &echoSlave{}
	if err := b.Attach(0x3C, s); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0x3C, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(s.written) != 1 || len(s.written[0]) != 3 {
		t.Fatalf("slave saw %v", s.written)
	}
}

func TestRead(t *testing.T) {
	b := NewBus(0)
	s := &echoSlave{reply: []byte{9, 8, 7}}
	if err := b.Attach(0x20, s); err != nil {
		t.Fatal(err)
	}
	got, err := b.Read(0x20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 9 {
		t.Fatalf("read %v", got)
	}
}

func TestNack(t *testing.T) {
	b := NewBus(0)
	if err := b.Write(0x10, []byte{1}); !errors.Is(err, ErrNack) {
		t.Fatalf("write to empty address: %v", err)
	}
	if _, err := b.Read(0x10, 1); !errors.Is(err, ErrNack) {
		t.Fatalf("read from empty address: %v", err)
	}
	if b.Stats().Nacks != 2 {
		t.Fatalf("nacks = %d, want 2", b.Stats().Nacks)
	}
}

func TestAddressValidation(t *testing.T) {
	b := NewBus(0)
	s := &echoSlave{}
	if err := b.Attach(0x00, s); !errors.Is(err, ErrInvalidAddress) {
		t.Fatalf("reserved address: %v", err)
	}
	if err := b.Attach(0x78, s); !errors.Is(err, ErrInvalidAddress) {
		t.Fatalf("10-bit range address: %v", err)
	}
	if err := b.Attach(0x3C, s); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(0x3C, &echoSlave{}); !errors.Is(err, ErrAddressInUse) {
		t.Fatalf("duplicate address: %v", err)
	}
}

func TestDetach(t *testing.T) {
	b := NewBus(0)
	if err := b.Attach(0x3C, &echoSlave{}); err != nil {
		t.Fatal(err)
	}
	if !b.Probe(0x3C) {
		t.Fatal("probe after attach failed")
	}
	b.Detach(0x3C)
	if b.Probe(0x3C) {
		t.Fatal("probe after detach succeeded")
	}
	if b.Addresses() != 0 {
		t.Fatalf("addresses = %d", b.Addresses())
	}
}

func TestSlaveErrorWrapped(t *testing.T) {
	b := NewBus(0)
	boom := errors.New("boom")
	if err := b.Attach(0x3C, &echoSlave{fail: boom}); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0x3C, []byte{1}); !errors.Is(err, boom) {
		t.Fatalf("slave error not wrapped: %v", err)
	}
	if _, err := b.Read(0x3C, 1); !errors.Is(err, boom) {
		t.Fatalf("slave read error not wrapped: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	b := NewBus(100_000)
	if err := b.Attach(0x3C, &echoSlave{reply: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0x3C, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(0x3C, 2); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("ops: %+v", st)
	}
	// 3 payload + 1 addr + 2 payload + 1 addr = 7 bytes.
	if st.Bytes != 7 {
		t.Fatalf("bytes = %d, want 7", st.Bytes)
	}
	if st.BusTime <= 0 {
		t.Fatal("bus time not accounted")
	}
	if st.PerSlaveOps[0x3C] != 2 {
		t.Fatalf("per-slave ops: %v", st.PerSlaveOps)
	}
	// Stats must be a copy.
	st.PerSlaveOps[0x3C] = 99
	if b.Stats().PerSlaveOps[0x3C] == 99 {
		t.Fatal("Stats returned internal map")
	}
}

func TestStatsKeepDetachedAddress(t *testing.T) {
	b := NewBus(0)
	if err := b.Attach(0x3C, &echoSlave{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(0x3D, &echoSlave{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Write(0x3C, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	before := b.Stats()
	b.Detach(0x3C)
	if err := b.Write(0x3C, []byte{1}); !errors.Is(err, ErrNack) {
		t.Fatalf("write after detach: %v", err)
	}
	st := b.Stats()
	if st.PerSlaveOps[0x3C] != 3 {
		t.Fatalf("detached address lost its op count: %v", st.PerSlaveOps)
	}
	if _, ok := st.PerSlaveOps[0x3D]; ok {
		t.Fatalf("idle address listed: %v", st.PerSlaveOps)
	}
	if st.Writes != before.Writes || st.Bytes != before.Bytes || st.BusTime != before.BusTime ||
		st.Nacks != before.Nacks+1 {
		t.Fatalf("stats after detach: before %+v, after %+v", before, st)
	}
}

func TestReattachAfterDetach(t *testing.T) {
	b := NewBus(0)
	old, fresh := &echoSlave{}, &echoSlave{}
	if err := b.Attach(0x3C, old); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0x3C, []byte{1}); err != nil {
		t.Fatal(err)
	}
	b.Detach(0x3C)
	b.Detach(0x3C) // detaching twice is harmless
	if err := b.Attach(0x3C, fresh); err != nil {
		t.Fatalf("attach after detach: %v", err)
	}
	if err := b.Attach(0x3C, &echoSlave{}); !errors.Is(err, ErrAddressInUse) {
		t.Fatalf("duplicate attach after re-attach: %v", err)
	}
	if !b.Probe(0x3C) || b.Addresses() != 1 {
		t.Fatalf("probe %v, addresses %d", b.Probe(0x3C), b.Addresses())
	}
	if err := b.Write(0x3C, []byte{2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(old.written) != 1 || len(fresh.written) != 1 {
		t.Fatalf("writes reached old %d, fresh %d", len(old.written), len(fresh.written))
	}
	if got := b.Stats().PerSlaveOps[0x3C]; got != 2 {
		t.Fatalf("per-slave ops across re-attach = %d, want 2", got)
	}
}
