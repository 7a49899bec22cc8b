package core

import (
	"repro/internal/cost"
	"repro/internal/netsim"
)

// This file is the paper's Tables 2, 3, and 4 as data: the exact
// primitive-operation sequences each semantics performs at each stage,
// per device input-buffering architecture. The sequences serve three
// masters: they document the design, the conformance tests in
// tables_test.go verify that the data path executes exactly these
// operations, and tools can render them.

// OutputPrepareOps returns the prepare-time operations of Table 2.
func OutputPrepareOps(sem Semantics) []cost.Op {
	switch sem {
	case Copy:
		return []cost.Op{cost.BufAllocate, cost.Copyin}
	case EmulatedCopy:
		return []cost.Op{cost.Reference, cost.ReadOnly}
	case Share:
		return []cost.Op{cost.Reference, cost.Wire}
	case EmulatedShare:
		return []cost.Op{cost.Reference}
	case Move:
		return []cost.Op{cost.Reference, cost.Wire, cost.RegionMarkOut, cost.Invalidate}
	case EmulatedMove:
		return []cost.Op{cost.Reference, cost.RegionMarkOut, cost.Invalidate}
	case WeakMove:
		return []cost.Op{cost.Reference, cost.Wire, cost.RegionMarkOut}
	case EmulatedWeakMove:
		return []cost.Op{cost.Reference, cost.RegionMarkOut}
	}
	return nil
}

// OutputDisposeOps returns the dispose-time operations of Table 2.
func OutputDisposeOps(sem Semantics) []cost.Op {
	switch sem {
	case Copy:
		return []cost.Op{cost.BufDeallocate}
	case EmulatedCopy:
		return []cost.Op{cost.Unreference}
	case Share:
		return []cost.Op{cost.Unwire, cost.Unreference}
	case EmulatedShare:
		return []cost.Op{cost.Unreference}
	case Move:
		return []cost.Op{cost.Unwire, cost.Unreference, cost.RegionRemove}
	case EmulatedMove:
		return []cost.Op{cost.Unreference, cost.RegionMarkOut}
	case WeakMove:
		return []cost.Op{cost.Unwire, cost.Unreference, cost.RegionMarkOut}
	case EmulatedWeakMove:
		return []cost.Op{cost.Unreference, cost.RegionMarkOut}
	}
	return nil
}

// InputPrepareOps returns the prepare-time operations of Table 3.
// cachedRegion selects the region-cache hit (steady state) versus the
// cold allocation of a fresh moving-in region.
func InputPrepareOps(sem Semantics, cachedRegion bool) []cost.Op {
	regionPrefix := func() []cost.Op {
		if cachedRegion {
			return nil // dequeue + mark moving in are folded into the fits
		}
		return []cost.Op{cost.RegionCreate}
	}
	switch sem {
	case Copy, EmulatedCopy, Move:
		return nil
	case Share:
		return []cost.Op{cost.Reference, cost.Wire}
	case EmulatedShare:
		return []cost.Op{cost.Reference}
	case EmulatedMove, EmulatedWeakMove:
		return append(regionPrefix(), cost.Reference)
	case WeakMove:
		return append(regionPrefix(), cost.Reference, cost.Wire)
	}
	return nil
}

// InputReadyOps returns the ready-time operations of Tables 3 and 4.
// Under early demultiplexing the buffer must exist before data arrives,
// so these run at posting time and overlap with the sender; under pooled
// buffering they run at arrival and contribute to latency; under
// outboard buffering they are folded into the dispose sequence.
func InputReadyOps(sem Semantics, scheme netsim.InputBuffering) []cost.Op {
	switch scheme {
	case netsim.EarlyDemux:
		switch sem {
		case Copy, EmulatedCopy, Move:
			return []cost.Op{cost.BufAllocate}
		}
		return nil
	case netsim.Pooled:
		return []cost.Op{cost.OverlayAllocate, cost.Overlay}
	}
	return nil
}

// InputDisposeOps returns the dispose-time operations of Table 3 (early
// demultiplexing), Table 4 (pooled), or Section 6.2.3 (outboard), for
// the aligned, page-multiple, checksum-free canonical configuration.
func InputDisposeOps(sem Semantics, scheme netsim.InputBuffering) []cost.Op {
	switch scheme {
	case netsim.EarlyDemux:
		switch sem {
		case Copy:
			return []cost.Op{cost.Copyout, cost.BufDeallocate}
		case EmulatedCopy:
			return []cost.Op{cost.Swap, cost.BufDeallocate}
		case Share:
			return []cost.Op{cost.Unwire, cost.Unreference}
		case EmulatedShare:
			return []cost.Op{cost.Unreference}
		case Move:
			return []cost.Op{cost.RegionCreate, cost.ZeroComplete, cost.RegionFill,
				cost.RegionMap, cost.RegionMarkIn}
		case EmulatedMove:
			return []cost.Op{cost.RegionCheckUnrefReinstateMarkIn}
		case WeakMove:
			return []cost.Op{cost.RegionCheck, cost.Unwire, cost.Unreference, cost.RegionMarkIn}
		case EmulatedWeakMove:
			return []cost.Op{cost.RegionCheckUnrefMarkIn}
		}
	case netsim.Pooled:
		switch sem {
		case Copy:
			return []cost.Op{cost.Copyout, cost.OverlayDeallocate}
		case EmulatedCopy:
			return []cost.Op{cost.Swap, cost.OverlayDeallocate}
		case Share:
			return []cost.Op{cost.Unwire, cost.Unreference, cost.Swap, cost.OverlayDeallocate}
		case EmulatedShare:
			return []cost.Op{cost.Unreference, cost.Swap, cost.OverlayDeallocate}
		case Move:
			return []cost.Op{cost.RegionCreate, cost.ZeroComplete, cost.RegionFillOverlayRefill,
				cost.RegionMap, cost.RegionMarkIn, cost.OverlayDeallocate}
		case EmulatedMove, EmulatedWeakMove:
			return []cost.Op{cost.RegionCheck, cost.Unreference, cost.Swap,
				cost.RegionMarkIn, cost.OverlayDeallocate}
		case WeakMove:
			return []cost.Op{cost.Unwire, cost.RegionCheck, cost.Unreference, cost.Swap,
				cost.RegionMarkIn, cost.OverlayDeallocate}
		}
	case netsim.OutboardBuffering:
		switch sem {
		case Copy:
			return []cost.Op{cost.BufAllocate, cost.OutboardDMA, cost.Copyout, cost.BufDeallocate}
		case EmulatedCopy:
			return []cost.Op{cost.Reference, cost.OutboardDMA, cost.Unreference, cost.BufDeallocate}
		case Share:
			return []cost.Op{cost.OutboardDMA, cost.Unwire, cost.Unreference, cost.BufDeallocate}
		case EmulatedShare:
			return []cost.Op{cost.OutboardDMA, cost.Unreference, cost.BufDeallocate}
		case Move:
			return []cost.Op{cost.BufAllocate, cost.OutboardDMA, cost.RegionCreate, cost.ZeroComplete,
				cost.RegionFill, cost.RegionMap, cost.RegionMarkIn, cost.BufDeallocate}
		case EmulatedMove:
			return []cost.Op{cost.OutboardDMA, cost.RegionCheckUnrefReinstateMarkIn, cost.BufDeallocate}
		case WeakMove:
			return []cost.Op{cost.OutboardDMA, cost.RegionCheck, cost.Unwire, cost.Unreference,
				cost.RegionMarkIn, cost.BufDeallocate}
		case EmulatedWeakMove:
			return []cost.Op{cost.OutboardDMA, cost.RegionCheckUnrefMarkIn, cost.BufDeallocate}
		}
	}
	return nil
}
