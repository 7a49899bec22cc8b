package vm

import "repro/internal/mem"

// PageoutDaemon is the simulated pageout daemon. Its eviction rule is
// the paper's input-disabled pageout (Section 3.2): pages with nonzero
// input reference count are never paged out (pending DMA input would
// make the paged-out copy inconsistent, and the application is about to
// touch them anyway), while pages with pending *output* may be paged out
// normally — I/O-deferred deallocation keeps their frames alive until
// the output completes. Wired pages are skipped, which is what the
// non-emulated semantics pay wire/unwire costs for.
type PageoutDaemon struct {
	sys *System
}

// NewPageoutDaemon returns a daemon for the system.
func NewPageoutDaemon(sys *System) *PageoutDaemon { return &PageoutDaemon{sys: sys} }

// candidate is an evictable page.
type candidate struct {
	obj *MemObject
	pi  int
}

// ScanOnce attempts to reclaim up to target pages, returning the number
// actually paged out. Eviction order is deterministic (object id, page
// index) so simulations are reproducible. Objects excluded from pageout
// are skipped.
func (d *PageoutDaemon) ScanOnce(target int) int {
	if target <= 0 {
		return 0
	}
	var cands []candidate
	for _, obj := range d.sys.objects {
		if obj == nil || obj.noPageout {
			continue
		}
		for pi, f := range obj.pages {
			if f == nil || f.Wired() || f.InRefs() > 0 {
				continue // input-disabled pageout; wiring
			}
			cands = append(cands, candidate{obj, pi})
		}
	}
	n := 0
	for _, c := range cands {
		if n >= target {
			break
		}
		d.evict(c.obj, c.pi)
		n++
	}
	return n
}

// Evictable returns the number of pages the daemon would currently be
// willing to evict. Tests use it to verify input-disabled pageout.
func (d *PageoutDaemon) Evictable() int {
	n := 0
	for _, obj := range d.sys.objects {
		if obj == nil || obj.noPageout {
			continue
		}
		for _, f := range obj.pages {
			if f != nil && !f.Wired() && f.InRefs() == 0 {
				n++
			}
		}
	}
	return n
}

// evict writes the page to the object's backing store, invalidates every
// mapping, and releases the frame (deferred past pending output).
func (d *PageoutDaemon) evict(obj *MemObject, pi int) {
	f := obj.pages[pi]
	if obj.backing == nil {
		obj.backing = make(map[int]mem.Buf)
	}
	obj.backing[pi] = f.SnapshotBuf()
	obj.removePage(pi)
	d.sys.invalidateFrame(f)
	d.sys.pm.Release(f)
	d.sys.stats.PageOuts++
	d.sys.emit("vm.pageout", d.sys.pageSize)
}
