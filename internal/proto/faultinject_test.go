package proto

import (
	"strings"
	"testing"

	"dsisim/internal/netsim"
)

// Fault injection: deliver messages the protocol never sent and verify the
// controllers' self-checks reject them rather than silently corrupting
// state. Each test uses a tolerant rig and asserts a failure was recorded
// with the expected diagnosis.

func expectFail(t *testing.T, r *rig, substr string) {
	t.Helper()
	for _, f := range r.fails {
		if strings.Contains(f, substr) {
			return
		}
	}
	t.Fatalf("fault not detected; want %q in %v", substr, r.fails)
}

func TestInjectStrayInvAck(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg(), tolerate: true})
	a := blockHomedAt(1, 4, 0)
	r.at(0, func() {
		r.net.Send(&netsim.Message{Kind: netsim.InvAck, Src: 2, Dst: 1, Addr: a})
	})
	r.run()
	expectFail(t, r, "stray ack")
}

func TestInjectDuplicateAck(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg(), tolerate: true})
	a := blockHomedAt(3, 4, 0)
	r.read(0, 0, a)
	r.read(300, 1, a)
	// Node 2's write triggers two Invs; a forged third ack overruns the
	// count.
	r.write(1000, 2, a, 1)
	r.at(1250, func() {
		r.net.Send(&netsim.Message{Kind: netsim.InvAck, Src: 0, Dst: 3, Addr: a})
	})
	r.run()
	if len(r.fails) == 0 {
		t.Fatal("duplicated ack went unnoticed")
	}
}

func TestInjectBystanderWriteback(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg(), tolerate: true})
	a := blockHomedAt(1, 4, 0)
	r.write(0, 0, a, 1) // node 0 owns the block
	r.at(1000, func() {
		// Node 2 claims to write back a block it never owned.
		r.net.Send(&netsim.Message{Kind: netsim.WB, Src: 2, Dst: 1, Addr: a})
	})
	r.run()
	expectFail(t, r, "writeback")
}

func TestInjectDataWithoutRequest(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg(), tolerate: true})
	a := blockHomedAt(1, 4, 0)
	r.at(0, func() {
		r.net.Send(&netsim.Message{Kind: netsim.DataS, Src: 1, Dst: 0, Addr: a})
	})
	r.run()
	expectFail(t, r, "unexpected DataS")
}

func TestInjectFinalAckWithoutPending(t *testing.T) {
	r := newRig(t, rigOpts{cfg: wcCfg(), tolerate: true})
	a := blockHomedAt(1, 4, 0)
	r.at(0, func() {
		r.net.Send(&netsim.Message{Kind: netsim.FinalAck, Src: 1, Dst: 0, Addr: a})
	})
	r.run()
	expectFail(t, r, "stray FinalAck")
}

func TestInjectGetXFromOwner(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg(), tolerate: true})
	a := blockHomedAt(1, 4, 0)
	r.write(0, 0, a, 1)
	r.at(1000, func() {
		// Node 0 already owns the block; a second exclusive request from it
		// indicates state corruption.
		r.net.Send(&netsim.Message{Kind: netsim.GetX, Src: 0, Dst: 1, Addr: a})
	})
	r.run()
	expectFail(t, r, "current owner")
}

// A well-behaved run through the same rig records no failures — the
// injection tests above are meaningful.
func TestNoFalsePositives(t *testing.T) {
	r := newRig(t, rigOpts{cfg: scCfg(), tolerate: true})
	a := blockHomedAt(1, 4, 0)
	r.write(0, 0, a, 1)
	r.read(1000, 2, a)
	r.write(2000, 3, a, 2)
	r.run()
	if len(r.fails) != 0 {
		t.Fatalf("clean run recorded failures: %v", r.fails)
	}
}
