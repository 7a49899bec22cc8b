package vm

import (
	"fmt"

	"repro/internal/mem"
)

// Fault handles a VM fault at va. It implements, in one place, the
// paper's three fault-handling contributions:
//
//   - Region hiding (Section 4): faults are recoverable only in
//     unmovable or moved-in regions, so a hidden (moved-out) region
//     behaves exactly as if it had been removed.
//   - TCOW (Section 5.1): a write fault on a write-protected page found
//     in the region's top object copies the page only if its output
//     reference count is nonzero; otherwise write access is simply
//     re-enabled.
//   - Conventional COW: a write fault on a page found below the top
//     object copies it into the top object.
//
// Plus the usual page-in and zero-fill paths.
func (as *AddressSpace) Fault(va Addr, write bool) error {
	sys := as.sys
	r := as.FindRegion(va)
	if r == nil {
		sys.stats.UnrecoverableFlt++
		return fmt.Errorf("%w: no region at %#x", ErrFault, va)
	}
	if !r.state.Accessible() {
		sys.stats.UnrecoverableFlt++
		return fmt.Errorf("%w: %#x in %v", ErrFault, va, r)
	}

	pageVA := sys.pageFloor(va)
	pi := r.pageIndex(va)
	pte, present := as.pt[pageVA]
	if present && pte.Prot.CanRead() && (!write || pte.Prot.CanWrite()) {
		return nil // spurious: another path already resolved it
	}
	sys.stats.Faults++

	f, holder := r.object.lookup(pi)
	if f == nil {
		// Not resident: page-in from backing store or zero-fill.
		if holderObj, ok := r.object.pagedOut(pi); ok {
			return as.pageIn(r, pageVA, pi, holderObj, write)
		}
		nf, err := sys.pm.AllocZeroed()
		if err != nil {
			return err
		}
		r.object.insertPage(pi, nf)
		as.pt[pageVA] = PTE{Frame: nf, Prot: ProtRW}
		sys.stats.ZeroFills++
		sys.emit("vm.fault.zero-fill", sys.pageSize)
		return nil
	}

	if holder == r.object {
		// Page resident in the top object.
		if write && present && !pte.Prot.CanWrite() {
			// TCOW write fault (Section 5.1).
			if f.OutRefs() > 0 {
				return as.tcowCopy(r, pageVA, pi, f)
			}
			pte.Prot |= ProtWrite
			as.pt[pageVA] = pte
			sys.stats.TCOWReenables++
			sys.emit("vm.fault.tcow-reenable", sys.pageSize)
			return nil
		}
		// Plain mapping fault (first touch of a resident page, or a
		// read on an unmapped page). A page still under TCOW output
		// protection stays read-only; anything else maps read-write.
		prot := ProtRW
		if !write && f.OutRefs() > 0 {
			prot = ProtRead
		}
		if write && f.OutRefs() > 0 && !present {
			// Write to an unmapped page under pending output: TCOW copy.
			return as.tcowCopy(r, pageVA, pi, f)
		}
		as.pt[pageVA] = PTE{Frame: f, Prot: prot}
		return nil
	}

	// Page resident in a shadowed (lower) object: conventional COW.
	if write {
		nf, err := sys.pm.Alloc()
		if err != nil {
			return err
		}
		nf.CopyFrom(f)
		r.object.insertPage(pi, nf)
		as.pt[pageVA] = PTE{Frame: nf, Prot: ProtRW}
		sys.stats.COWCopies++
		sys.emit("vm.fault.cow-copy", sys.pageSize)
		return nil
	}
	as.pt[pageVA] = PTE{Frame: f, Prot: ProtRead}
	return nil
}

// tcowCopy resolves a write to page pi of r's top object, whose frame f
// is still referenced by pending output: the application gets a private
// writable copy and f belongs solely to the output, its deallocation
// I/O-deferred.
func (as *AddressSpace) tcowCopy(r *Region, pageVA Addr, pi int, f *mem.Frame) error {
	sys := as.sys
	nf, err := sys.pm.Alloc()
	if err != nil {
		return err
	}
	nf.CopyFrom(f)
	old := r.object.swapPage(pi, nf)
	as.pt[pageVA] = PTE{Frame: nf, Prot: ProtRW}
	sys.pm.Release(old)
	sys.stats.TCOWCopies++
	sys.emit("vm.fault.tcow-copy", sys.pageSize)
	return nil
}

// pageIn restores a paged-out page from the simulated backing store.
func (as *AddressSpace) pageIn(r *Region, pageVA Addr, pi int, holder *MemObject, write bool) error {
	sys := as.sys
	nf, err := sys.pm.Alloc()
	if err != nil {
		return err
	}
	nf.LoadBuf(holder.backing[pi])
	delete(holder.backing, pi)
	holder.insertPage(pi, nf)
	sys.stats.PageIns++
	sys.emit("vm.fault.page-in", sys.pageSize)
	if holder != r.object {
		// Paged out below the top object: retry as an ordinary fault so
		// the COW rules apply.
		return as.Fault(pageVA, write)
	}
	as.pt[pageVA] = PTE{Frame: nf, Prot: ProtRW}
	return nil
}
