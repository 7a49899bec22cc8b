package core

import (
	"errors"
	"fmt"

	"repro/internal/cost"
	"repro/internal/vm"
)

// ErrDifferentHost: local IPC connects processes of one machine.
var ErrDifferentHost = errors.New("core: local IPC requires processes on the same host")

// SendLocal passes length bytes at va to a freshly allocated buffer in
// dst with copy semantics — the interprocess communication path the
// paper's Section 3.3 is about. Page-aligned transfers are optimized
// with copy-on-write; the VM layer transparently falls back to a
// physical copy when the source region has pending in-place input
// (input-disabled COW), because COW under DMA would actually provide
// share semantics. Unaligned transfers copy physically.
//
// It returns the address of the data in dst's address space.
func (p *Process) SendLocal(dst *Process, va vm.Addr, length int) (vm.Addr, error) {
	g := p.g
	if dst.g != g {
		return 0, ErrDifferentHost
	}
	if length <= 0 {
		return 0, fmt.Errorf("%w: length %d", ErrBadBuffer, length)
	}
	ps := vm.Addr(g.pageSize())
	aligned := va%ps == 0 && length%g.pageSize() == 0

	if aligned {
		nr, err := p.as.CopyRegionCOW(va, length, dst.as)
		if err != nil {
			return 0, err
		}
		// COW setup costs: create the destination region and
		// write-protect the source mappings. Whether the VM layer chose
		// the COW chain or a forced physical copy, the caller's API and
		// guarantees are identical.
		g.chargeSet(StagePrepare, opCtx{}, []Charge{
			{cost.RegionCreate, 0}, {cost.ReadOnly, length},
		}, nil)
		return nr.Start(), nil
	}

	// Unaligned: physical copy into a fresh region.
	nr, err := dst.as.AllocRegion(length, vm.Unmovable)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, length)
	if err := p.as.Peek(va, buf); err != nil {
		_ = dst.as.RemoveRegion(nr)
		return 0, err
	}
	if err := dst.as.Poke(nr.Start(), buf); err != nil {
		_ = dst.as.RemoveRegion(nr)
		return 0, err
	}
	g.chargeSet(StagePrepare, opCtx{}, []Charge{
		{cost.RegionCreate, 0}, {cost.Copyin, length},
	}, nil)
	return nr.Start(), nil
}
