package pagecache

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Script geometry: small pages keep each step cheap, and block numbers
// decode to [-2, fuzzBlocks+2) so requests past either end are common.
const (
	fuzzBS     = 64
	fuzzBlocks = 12
	fuzzFrames = 32
)

// scriptReader hands out script bytes, reading zeros once exhausted.
type scriptReader struct{ p []byte }

func (r *scriptReader) next() int {
	if len(r.p) == 0 {
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return int(b)
}

// pattern returns n bytes derived from seed.
func pattern(seed, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seed*31 + i*7 + i/5)
	}
	return p
}

// modelPage is one resident block of the model cache.
type modelPage struct {
	block      int
	dirty      bool
	shared     bool       // written back and clean since: the device holds the page by reference
	prev, next *modelPage // most recent at head
}

// cacheModel is the naive page cache the fuzz target checks Cache
// against: a map of resident blocks and a doubly linked LRU list, with
// a shadow file image (what every block reads as) and the media the
// device should hold. A block that is not resident, or resident and
// clean, has file == media. It also counts the device requests, blocks
// and seeks the cache's reads and writebacks should cost.
type cacheModel struct {
	cfg        Config
	pages      map[int]*modelPage
	head, tail *modelPage
	ndirty     int
	file       [][]byte
	media      [][]byte
	ct         Counters
	dev        blockdev.Stats // BusyUS aside
	nextLBA    int            // the block after the last request; a request elsewhere seeks
}

func inDevice(b int) bool { return b >= 0 && b < fuzzBlocks }

func (m *cacheModel) unlink(p *modelPage) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		m.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		m.tail = p.prev
	}
	p.prev, p.next = nil, nil
}

func (m *cacheModel) front(p *modelPage) {
	if m.head == p {
		return
	}
	if p.prev != nil || p.next != nil || m.tail == p {
		m.unlink(p)
	}
	p.next = m.head
	if m.head != nil {
		m.head.prev = p
	}
	m.head = p
	if m.tail == nil {
		m.tail = p
	}
}

// request counts one device request of n blocks at b.
func (m *cacheModel) request(b, n int) {
	if b != m.nextLBA {
		m.dev.Seeks++
	}
	m.nextLBA = b + n
}

func (m *cacheModel) writeBack(p *modelPage) {
	m.request(p.block, 1)
	m.dev.Writes++
	m.dev.BlocksWritten++
	m.media[p.block] = slices.Clone(m.file[p.block])
	p.dirty, p.shared = false, true
	m.ndirty--
	m.ct.Writebacks++
}

// flushDirty writes every dirty page back in ascending block order.
func (m *cacheModel) flushDirty() {
	blocks := make([]int, 0, len(m.pages))
	for b, p := range m.pages {
		if p.dirty {
			blocks = append(blocks, b)
		}
	}
	slices.Sort(blocks)
	for _, b := range blocks {
		m.writeBack(m.pages[b])
	}
}

func (m *cacheModel) remove(p *modelPage) {
	m.unlink(p)
	delete(m.pages, p.block)
}

func (m *cacheModel) evictFor(need int) {
	for len(m.pages)+need > m.cfg.Pages && m.tail != nil {
		p := m.tail
		if p.dirty {
			m.writeBack(p)
		}
		m.remove(p)
		m.ct.Evictions++
	}
}

func (m *cacheModel) insert(b int) *modelPage {
	m.evictFor(1)
	p := &modelPage{block: b}
	m.pages[b] = p
	m.front(p)
	return p
}

// fill models a miss: the block and up to ReadAhead further blocks in
// one device read, clipped at the device end, at a resident block and
// at capacity. It fails, changing nothing, outside the device.
func (m *cacheModel) fill(b int) bool {
	if !inDevice(b) {
		return false
	}
	run := 1
	for run < min(1+m.cfg.ReadAhead, m.cfg.Pages) && b+run < fuzzBlocks && m.pages[b+run] == nil {
		run++
	}
	m.request(b, run)
	m.dev.Reads++
	m.dev.BlocksRead += uint64(run)
	m.ct.Misses++
	m.ct.ReadAheads += uint64(run - 1)
	for i := run - 1; i >= 0; i-- {
		m.insert(b + i)
	}
	return true
}

func (m *cacheModel) require(b int) (*modelPage, bool) {
	if p := m.pages[b]; p != nil {
		m.ct.Hits++
		m.front(p)
		return p, true
	}
	if !m.fill(b) {
		return nil, false
	}
	p := m.pages[b]
	m.front(p)
	return p, true
}

func (m *cacheModel) markDirty(p *modelPage) {
	if !p.dirty {
		p.dirty = true
		m.ndirty++
	}
	if m.cfg.DirtyThreshold > 0 && m.ndirty >= m.cfg.DirtyThreshold {
		m.ct.Bursts++
		m.flushDirty()
	}
}

// readRange returns the bytes ReadRange must read, or false when it
// must fail (after requiring the pages before the failing one).
func (m *cacheModel) readRange(block, off, n int) ([]byte, bool) {
	pos, off := block+off/fuzzBS, off%fuzzBS
	out := make([]byte, 0, n)
	for len(out) < n {
		if _, ok := m.require(pos); !ok {
			return nil, false
		}
		k := min(fuzzBS-off, n-len(out))
		out = append(out, m.file[pos][off:off+k]...)
		off = 0
		pos++
	}
	return out, true
}

// writeRange models WriteRange, which fails at the first page outside
// the device after storing the pages before it.
func (m *cacheModel) writeRange(block, off int, data []byte) bool {
	pos, off := block+off/fuzzBS, off%fuzzBS
	for len(data) > 0 {
		k := min(fuzzBS-off, len(data))
		p := m.pages[pos]
		switch {
		case p != nil:
			m.ct.Hits++
			m.front(p)
			p.shared = false
		case k == fuzzBS:
			if !inDevice(pos) {
				return false
			}
			p = m.insert(pos)
		default:
			if !m.fill(pos) {
				return false
			}
			p = m.pages[pos]
			m.front(p)
		}
		copy(m.file[pos][off:], data[:k])
		m.markDirty(p)
		data = data[k:]
		off = 0
		pos++
	}
	return true
}

// takeFrames models TakeFrames: all or nothing, with the pages already
// taken returned clean and most recently used when a later one fails.
func (m *cacheModel) takeFrames(block, count int) bool {
	for i := 0; i < count; i++ {
		p, ok := m.require(block + i)
		if !ok {
			for j := i - 1; j >= 0; j-- {
				m.evictFor(1)
				q := &modelPage{block: block + j}
				m.pages[q.block] = q
				m.front(q)
				m.ct.Consumed--
			}
			return false
		}
		if p.dirty {
			m.writeBack(p)
		}
		m.remove(p)
		m.ct.Consumed++
	}
	return true
}

func (m *cacheModel) writeBackRange(block, count int) {
	for b := block; b < block+count; b++ {
		if p := m.pages[b]; p != nil && p.dirty {
			m.writeBack(p)
		}
	}
}

func (m *cacheModel) drop() {
	m.flushDirty()
	for m.tail != nil {
		m.remove(m.tail)
		m.ct.Evictions++
	}
}

// FuzzCacheScript runs decoded scripts of ReadRange, partial and
// full-page WriteRange, EnsureRange, TakeFrames, WriteBackRange, Sync,
// Drop, a system reset followed by Reacquire, a rewrite of a resident
// page the device shares (one written back and still clean), and
// TakeFrames followed by writes into the donated frames before they are
// released, against cacheModel. After every step the cache must match
// the model in all seven counters, the resident blocks in LRU order,
// which of them are dirty and their contents, the device's request,
// block and seek counts (which pin the writeback order) and its media,
// so a page the device still shares that changes or leaves without its
// share ending shows as a media mismatch naming the block; every read
// must return the file image, every request outside the device must
// fail without a panic, and the cache and physical memory audits must
// pass. Each script runs twice, once on the bytes plane and once on the
// symbolic plane, each against its own model, and every failure names
// the plane: on the bytes plane the device shares a written-back page's
// store and the cache marks it shared, on the symbolic plane the device
// keeps the page's runs by reference, and a later splice into the page
// must leave them alone.
func FuzzCacheScript(f *testing.F) {
	f.Add([]byte{3, 2, 2, 7, 1, 5, 0, 9, 2, 3, 1, 4, 2, 1, 2, 8, 6})
	f.Add([]byte{5, 0, 0, 1, 4, 2, 5, 2, 6, 0, 14, 5})
	// Four pages, no threshold: write blocks 1-2 whole, Sync, then
	// rewrite the shared block 2 in part and block 1 whole (op 9).
	f.Add([]byte{3, 0, 0, 1, 2, 3, 1, 4, 6, 0, 9, 0, 0, 1, 10, 20, 7, 9, 0, 0, 0, 9})
	// Two pages: write and Sync block 0, read blocks 4 and 5 to evict
	// it, and read it back from the device.
	f.Add([]byte{1, 0, 0, 2, 2, 2, 0, 6, 6, 0, 0, 6, 0, 0, 0, 7, 0, 0, 0, 2, 0, 63})
	// Threshold 1 writes blocks 3-4 back as they are written; donate
	// both, write into the donated frames (op 10), and read them back.
	f.Add([]byte{4, 0, 1, 2, 2, 5, 1, 8, 10, 5, 1, 0, 5, 0, 127})
	// Write part of block 4 (read ahead fills 5), Sync, rewrite part of
	// it, Sync, Drop, and read blocks 4-5 back.
	f.Add([]byte{3, 1, 0, 5, 1, 6, 3, 20, 12, 6, 0, 9, 0, 0, 1, 10, 4, 30, 6, 0, 7, 0, 0, 6, 0, 100})
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, plane := range []mem.DataPlane{mem.Bytes, mem.Symbolic} {
			runCacheScript(t, plane, script)
		}
	})
}

// runCacheScript decodes and runs one script on plane against a fresh
// model.
func runCacheScript(t *testing.T, plane mem.DataPlane, script []byte) {
	t.Helper()
	r := &scriptReader{p: script}
	cfg := Config{Pages: 1 + r.next()%6, ReadAhead: r.next() % 4, DirtyThreshold: r.next() % 5}
	pm := mem.NewWithPlane(fuzzFrames, fuzzBS, plane)
	sys := vm.NewSystem(pm)
	eng := sim.New()
	dev, err := blockdev.New(eng, blockdev.Model{SeekUS: 5, FixedUS: 1}, fuzzBS, fuzzBlocks)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(sys, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &cacheModel{cfg: cfg, pages: map[int]*modelPage{}, nextLBA: -1}
	// load images the device with a fresh file; Load aliases its
	// slice, so the model keeps copies.
	load := func(seed int) {
		m.file, m.media = make([][]byte, fuzzBlocks), make([][]byte, fuzzBlocks)
		for b := range fuzzBlocks {
			img := pattern(seed+b, fuzzBS)
			if err := dev.Load(b, mem.BufBytes(img)); err != nil {
				t.Fatalf("%s plane: %v", plane.Name(), err)
			}
			m.file[b], m.media[b] = slices.Clone(img), slices.Clone(img)
		}
	}
	load(r.next())
	for step := 0; len(r.p) > 0 && step < 64; step++ {
		at := fmt.Sprintf("%s plane, step %d", plane.Name(), step)
		op, block := r.next()%11, r.next()%(fuzzBlocks+4)-2
		var err error
		ok := true
		switch op {
		case 0: // ReadRange
			off, n := r.next()%(2*fuzzBS), 1+r.next()%(3*fuzzBS)
			dst := make([]byte, n)
			_, err = c.ReadRange(block, off, dst)
			var want []byte
			if want, ok = m.readRange(block, off, n); ok && err == nil && !bytes.Equal(dst, want) {
				t.Fatalf("%s: ReadRange(%d, %d, %d bytes) differs from the file image", at, block, off, n)
			}
		case 1, 2: // WriteRange, partial pages or whole ones
			var off, n int
			if op == 1 {
				off, n = r.next()%fuzzBS, 1+r.next()%(2*fuzzBS)
			} else {
				n = (1 + r.next()%3) * fuzzBS
			}
			data := pattern(r.next(), n)
			_, err = c.WriteRange(block, off, mem.BufBytes(data))
			ok = m.writeRange(block, off, data)
		case 3: // EnsureRange
			count := r.next() % 5
			_, err = c.EnsureRange(block, count)
			for i := 0; ok && i < count; i++ {
				_, ok = m.require(block + i)
			}
		case 4, 10: // TakeFrames; the frames go back to memory afterwards,
			// written first by their new owner in op 10
			frames := make([]*mem.Frame, 1+r.next()%4)
			_, err = c.TakeFrames(block, frames)
			if ok = m.takeFrames(block, len(frames)); ok && err == nil {
				for i, fr := range frames {
					if got := fr.ReadBuf(0, fuzzBS).Resolve(); !bytes.Equal(got, m.file[block+i]) {
						t.Fatalf("%s: taken frame of block %d differs from the file image", at, block+i)
					}
					if op == 10 {
						fr.WriteAt(i, pattern(block+i+101, fuzzBS-i))
					}
					pm.Release(fr)
				}
			}
		case 5: // WriteBackRange, possibly past either end
			count := r.next() % 6
			c.WriteBackRange(block, count)
			m.writeBackRange(block, count)
		case 6:
			c.Sync()
			m.flushDirty()
		case 7:
			c.Drop()
			m.drop()
		case 8: // system reset: dirty pages are lost with the old media
			pm.Reset()
			sys.Reset()
			eng.Reset()
			dev.Reset()
			c.Reacquire()
			*m = cacheModel{cfg: cfg, pages: map[int]*modelPage{}, nextLBA: -1}
			load(r.next())
		case 9: // rewrite a shared page, whole or in part; the block byte is unused
			var shared []int
			for p := m.head; p != nil; p = p.next {
				if p.shared {
					shared = append(shared, p.block)
				}
			}
			pick, off, n := r.next(), 0, fuzzBS
			if r.next()%2 == 1 {
				off = r.next() % fuzzBS
				n = 1 + r.next()%(fuzzBS-off)
			}
			data := pattern(r.next(), n)
			if len(shared) == 0 {
				break
			}
			block = shared[pick%len(shared)]
			_, err = c.WriteRange(block, off, mem.BufBytes(data))
			ok = m.writeRange(block, off, data)
		}
		if ok != (err == nil) {
			t.Fatalf("%s: op %d at block %d returned %v, model ok %t", at, op, block, err, ok)
		}
		checkAgainstModel(t, at, plane, c, dev, pm, m)
	}
}

// checkAgainstModel compares the cache, its device and memory with the
// model after the script step at names. Only the bytes plane marks
// shared entries; the symbolic plane's device keeps runs instead.
func checkAgainstModel(t *testing.T, at string, plane mem.DataPlane, c *Cache, dev *blockdev.Device, pm *mem.PhysMem, m *cacheModel) {
	t.Helper()
	if c.Counters() != m.ct {
		t.Fatalf("%s: counters %+v, model %+v", at, c.Counters(), m.ct)
	}
	if c.Resident() != len(m.pages) || c.Dirty() != m.ndirty {
		t.Fatalf("%s: resident %d dirty %d, model %d and %d", at, c.Resident(), c.Dirty(), len(m.pages), m.ndirty)
	}
	p := m.head
	for e := c.head; e != nil || p != nil; e, p = e.next, p.next {
		if e == nil || p == nil || e.block != p.block || c.isDirty(e) != p.dirty || e.shared != (p.shared && !plane.Symbolic()) {
			t.Fatalf("%s: LRU order, dirty set or shared set differs from the model", at)
		}
		if got := e.frame.ReadBuf(0, fuzzBS).Resolve(); !bytes.Equal(got, m.file[e.block]) {
			t.Fatalf("%s: resident block %d differs from the file image", at, e.block)
		}
	}
	ds := dev.Stats()
	ds.BusyUS = 0
	if ds != m.dev {
		t.Fatalf("%s: device stats %+v, model %+v", at, ds, m.dev)
	}
	for b := range fuzzBlocks {
		if !bytes.Equal(dev.Peek(b).Resolve(), m.media[b]) {
			t.Fatalf("%s: media of block %d differs from the model", at, b)
		}
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
}
