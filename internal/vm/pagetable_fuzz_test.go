package vm

import (
	"testing"

	"repro/internal/mem"
)

// Script opcodes of FuzzPageTable. Each op is three bytes: the opcode
// and two arguments a and b.
const (
	ptAllocRegion = iota
	ptAllocRegionAt
	ptRemoveRegion
	ptFaultRead
	ptFaultWrite
	ptInvalidate
	ptRemoveWrite
	ptKernelSwapPage
	ptMapObject
	ptCopyCOW
	ptPageout
	ptHide
	ptReinstate
	ptReset
	numPTOps
)

// ptScript is FuzzPageTable's machine: one System over a small physical
// memory, two address spaces, and the reference model of each space's
// page table, the plain map[Addr]PTE the VM once kept.
type ptScript struct {
	sys    *System
	spaces [2]*AddressSpace
	model  [2]map[Addr]PTE
	pager  *PageoutDaemon
}

const (
	ptPageSize = 64
	ptPages    = 40 // the address range ops pick pages from, in pages
)

func newPTScript() *ptScript {
	s := &ptScript{sys: NewSystem(mem.New(64, ptPageSize))}
	s.pager = NewPageoutDaemon(s.sys)
	s.newSpaces()
	return s
}

func (s *ptScript) newSpaces() {
	for i := range s.spaces {
		s.spaces[i] = s.sys.NewAddressSpace()
		s.model[i] = make(map[Addr]PTE)
	}
}

// region returns region b (mod count) of space i, or nil.
func (s *ptScript) region(i, b int) *Region {
	rs := s.spaces[i].Regions()
	if len(rs) == 0 {
		return nil
	}
	return rs[b%len(rs)]
}

// faulted is the entry a successful fault leaves at pageVA in r, under
// the fault handler's rules with no output pending: a page found in the
// region's top object maps read-write, one found below it read-only.
func faulted(r *Region, pageVA Addr) PTE {
	f, holder := r.object.lookup(r.pageIndex(pageVA))
	if holder == r.object {
		return PTE{Frame: f, Prot: ProtRW}
	}
	return PTE{Frame: f, Prot: ProtRead}
}

// op applies one op to the system and the same change to the model.
func (s *ptScript) op(t *testing.T, op byte, a, b int) {
	sys, ps := s.sys, Addr(ptPageSize)
	i := a % 2
	as, model := s.spaces[i], s.model[i]
	pageVA := Addr(b%ptPages+1) * ps
	switch op {
	case ptAllocRegion:
		_, _ = as.AllocRegion((1+b%4)*ptPageSize, []RegionState{Unmovable, MovedIn}[(b/4)%2])
	case ptAllocRegionAt:
		_, _ = as.AllocRegionAt(pageVA, (1+(a/2)%4)*ptPageSize, Unmovable)
	case ptRemoveRegion:
		if r := s.region(i, b); r != nil {
			for va := r.Start(); va < r.End(); va += ps {
				delete(model, va)
			}
			if err := as.RemoveRegion(r); err != nil {
				t.Fatal(err)
			}
		}
	case ptFaultRead, ptFaultWrite:
		write := op == ptFaultWrite
		va := pageVA + Addr(a%ptPageSize)
		old, present := model[pageVA]
		if err := as.Fault(va, write); err != nil {
			return
		}
		if !present || !old.Prot.CanRead() || (write && !old.Prot.CanWrite()) {
			model[pageVA] = faulted(as.FindRegion(va), pageVA)
		}
	case ptInvalidate, ptRemoveWrite:
		n := (1 + (a/2)%3) * ptPageSize
		if op == ptInvalidate {
			as.Invalidate(pageVA, n)
		} else {
			as.RemoveWrite(pageVA, n)
		}
		for va := pageVA; va < pageVA+Addr(n); va += ps {
			if pte, ok := model[va]; ok {
				if op == ptInvalidate {
					delete(model, va)
				} else {
					pte.Prot &^= ProtWrite
					model[va] = pte
				}
			}
		}
	case ptKernelSwapPage:
		nf, err := sys.Phys().Alloc()
		if err != nil {
			return
		}
		r := as.FindRegion(pageVA)
		old, err := as.KernelSwapPage(pageVA, nf)
		if err != nil {
			sys.Phys().Release(nf)
			return
		}
		if old != nil {
			sys.Phys().Release(old)
		}
		if _, present := model[pageVA]; present || r.State().Accessible() {
			model[pageVA] = PTE{Frame: nf, Prot: ProtRW}
		}
	case ptMapObject:
		obj := sys.NewKernelObject()
		pages := 1 + b%3
		for pi := range pages {
			if (a>>(pi+1))&1 != 0 {
				if _, err := sys.AllocFrameInto(obj, pi); err != nil {
					break
				}
			}
		}
		r, err := as.MapObject(obj, pages*ptPageSize, MovedIn)
		sys.ReleaseKernelObject(obj)
		if err != nil {
			return
		}
		for pi := range pages {
			if f := obj.page(pi); f != nil {
				model[r.Start()+Addr(pi)*ps] = PTE{Frame: f, Prot: ProtRW}
			}
		}
	case ptCopyCOW:
		r := s.region(i, b)
		if r == nil {
			return
		}
		if _, err := as.CopyRegionCOW(r.Start(), r.Len(), s.spaces[(a/2)%2]); err != nil {
			return
		}
		for va := r.Start(); va < r.End(); va += ps {
			if pte, ok := model[va]; ok {
				pte.Prot &^= ProtWrite
				model[va] = pte
			}
		}
	case ptPageout:
		s.pager.ScanOnce(1 + b%4)
		// An evicted page's frame is released; without I/O references
		// it is free, and every entry mapping it is gone.
		for k := range s.model {
			for va, pte := range s.model[k] {
				if pte.Frame.Free() {
					delete(s.model[k], va)
				}
			}
		}
	case ptHide:
		if r := s.region(i, b); r != nil && r.State() == MovedIn {
			if err := r.MarkMovingOut(); err != nil {
				t.Fatal(err)
			}
			if err := r.MarkMovedOut(); err != nil {
				t.Fatal(err)
			}
		}
	case ptReinstate:
		if r := s.region(i, b); r != nil {
			as.Reinstate(r)
			for va := r.Start(); va < r.End(); va += ps {
				if pte := faulted(r, va); pte.Frame != nil {
					model[va] = pte
				}
			}
		}
	case ptReset:
		sys.Phys().Reset()
		sys.Reset()
		s.newSpaces()
	}
}

// check compares every page of every region of each space with the
// model and runs the invariant checks.
func (s *ptScript) check(t *testing.T, step int) {
	t.Helper()
	ps := Addr(ptPageSize)
	for i, as := range s.spaces {
		mapped := 0
		for _, r := range as.Regions() {
			for va := r.Start(); va < r.End(); va += ps {
				got, ok := as.PTEAt(va)
				want, wok := s.model[i][va]
				if got != want || ok != wok {
					t.Fatalf("step %d: space %d page %#x in %v: PTEAt = %+v, %t; model %+v, %t",
						step, i, va, r, got, ok, want, wok)
				}
				if ok {
					mapped++
				}
			}
		}
		if mapped != len(s.model[i]) {
			t.Fatalf("step %d: space %d maps %d pages in its regions, model holds %d", step, i, mapped, len(s.model[i]))
		}
		if err := as.CheckInvariants(); err != nil {
			t.Fatalf("step %d: space %d: %v", step, i, err)
		}
	}
	if err := s.sys.Phys().CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if err := s.sys.CheckSpares(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// FuzzPageTable checks the region-resident page tables against the
// plain map[Addr]PTE they replaced. A script of three-byte ops
// allocates regions (at the lowest gap or a chosen address), removes
// them, faults pages for read and write, invalidates and write-protects
// page ranges, swaps kernel pages in, maps kernel objects, copies
// regions copy-on-write between two spaces, runs the pageout daemon,
// hides and reinstates regions, and Resets the whole system. After
// every op PTEAt over every page of every region must equal the model,
// which applies each op's page-table effect to a map, the VM and
// physical memory invariants must hold, and every spare page table and
// page slot array must be cleared. The seed corpus in
// testdata/fuzz covers each op once, a Reset in mid-script, a COW copy
// written on both sides, and a range mapped again after its region was
// removed (FindRegion's last hit must forget a removed region). Scripts
// stop after 100 ops.
func FuzzPageTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		// Every check walks every page, so a long script would cost the
		// square of its length; 100 ops reach every state that matters.
		script = script[:min(len(script), 3*100)]
		s := newPTScript()
		for i := 0; i+2 < len(script); i += 3 {
			s.op(t, script[i]%numPTOps, int(script[i+1]), int(script[i+2]))
			s.check(t, i/3)
		}
	})
}
