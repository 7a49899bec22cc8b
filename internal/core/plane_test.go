package core

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/vm"
)

// planeTransfer runs one application-allocated transfer on a fresh
// testbed and returns the delivered bytes and the end-to-end latency in
// simulated microseconds.
func planeTransfer(t *testing.T, cfg TestbedConfig, sem Semantics, appOff, length int) ([]byte, float64) {
	t.Helper()
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sender := tb.A.Genie.NewProcess()
	receiver := tb.B.Genie.NewProcess()
	ps := tb.Model.Platform.PageSize

	payload := make([]byte, length)
	for i := range payload {
		payload[i] = byte(i*31 + 5)
	}
	srcVA, err := sender.Brk(length + 2*ps)
	if err != nil {
		t.Fatal(err)
	}
	dbase, err := receiver.Brk(length + 2*ps)
	if err != nil {
		t.Fatal(err)
	}
	dstVA := dbase + vm.Addr(appOff%ps)
	if err := sender.Write(srcVA, payload); err != nil {
		t.Fatal(err)
	}

	out, in, err := tb.Transfer(sender, receiver, 1, sem, srcVA, dstVA, length)
	if err != nil {
		t.Fatalf("%v transfer: %v", sem, err)
	}
	if in.N != length {
		t.Fatalf("%v: received %d bytes, want %d", sem, in.N, length)
	}
	got := make([]byte, in.N)
	if err := receiver.Read(in.Addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("%v: payload corrupted in transit", sem)
	}
	return got, in.CompletedAt.Sub(out.StartedAt).Micros()
}

// TestOverlayOffsetIdenticalAcrossPlanes drives datagrams that are not
// a page multiple through a device placement offset of 1000 bytes, into
// an application buffer at the same offset (aligned) and at another one
// (misaligned) — the layouts that exercise every splice boundary:
// overlay pages carry a leading device offset, aligned input swaps or
// splices pages, and the copyout path gathers across page boundaries.
// Pooled and outboard buffering both must deliver identical contents
// with identical latency on the bytes and symbolic planes.
func TestOverlayOffsetIdenticalAcrossPlanes(t *testing.T) {
	const (
		devOff = 1000
		length = 20000 // five pages and part of a sixth
	)
	schemes := []struct {
		name string
		buf  netsim.InputBuffering
	}{
		{"pooled", netsim.Pooled},
		{"outboard", netsim.OutboardBuffering},
	}
	appOffs := []struct {
		name string
		off  int
	}{
		{"aligned", devOff},
		{"misaligned", 24},
	}
	for _, scheme := range schemes {
		for _, app := range appOffs {
			for _, sem := range []Semantics{Copy, EmulatedCopy, Share, EmulatedShare} {
				t.Run(scheme.name+"/"+app.name+"/"+sem.String(), func(t *testing.T) {
					cfg := TestbedConfig{Buffering: scheme.buf, OverlayOff: devOff}
					cfgBytes, cfgSym := cfg, cfg
					cfgBytes.Plane = mem.Bytes
					cfgSym.Plane = mem.Symbolic
					gotBytes, latBytes := planeTransfer(t, cfgBytes, sem, app.off, length)
					gotSym, latSym := planeTransfer(t, cfgSym, sem, app.off, length)
					if !bytes.Equal(gotBytes, gotSym) {
						i := 0
						for i < len(gotBytes) && gotBytes[i] == gotSym[i] {
							i++
						}
						t.Errorf("delivered contents differ across planes at byte %d: bytes %#02x, symbolic %#02x",
							i, gotBytes[i], gotSym[i])
					}
					if latBytes != latSym {
						t.Errorf("latency differs across planes: bytes %.3f us, symbolic %.3f us", latBytes, latSym)
					}
				})
			}
		}
	}
}
