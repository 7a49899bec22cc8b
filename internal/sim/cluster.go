package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cluster advances N engine shards concurrently under conservative
// synchronization. Each shard is an independent Engine — typically one
// simulated host — and all cross-shard interaction goes through Post,
// which stages a closure for delivery on the destination shard.
//
// Time advances in barrier windows. Each round the coordinator finds
// the earliest pending event time T across all shards and sets the
// window bound to T + lookahead, where lookahead is the minimum
// cross-shard latency (for a link fabric, the smallest fixed wire
// delay). Within the window every shard runs independently — no other
// shard can affect it before the bound, because any message sent during
// the window arrives at least lookahead after its send time, i.e. at or
// beyond the bound. At the barrier the staged cross-posts are drained
// into their destination shards in a fixed (destination, source, send
// order) sequence, so event sequence numbers — and therefore tie-break
// order — are identical no matter how many worker goroutines ran the
// window. That is the whole determinism argument: shards are
// sequentially deterministic, windows make them independent, and the
// single-threaded drain makes the merge order canonical.
//
// Null messages are never needed: the window bound is computed from
// global state between barriers rather than negotiated pairwise.
type Cluster struct {
	shards    []*Engine
	lookahead Duration
	workers   int
	outbox    [][][]xpost // [src][dst] staged cross-shard posts
	claim     atomic.Int64
}

// xpost is one staged cross-shard delivery.
type xpost struct {
	at Time
	fn func()
}

// NewCluster builds a cluster of n fresh shards. The lookahead must be
// positive — conservative synchronization extracts its parallelism
// entirely from the guarantee that cross-shard effects lag by at least
// this much, and a zero lookahead would serialize to nothing. workers
// is the number of goroutines used per window, clamped to [1, n].
func NewCluster(n int, lookahead Duration, workers int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: cluster needs at least 1 shard, got %d", n)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: cluster lookahead must be positive, got %v", lookahead)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	c := &Cluster{
		shards:    make([]*Engine, n),
		lookahead: lookahead,
		workers:   workers,
		outbox:    make([][][]xpost, n),
	}
	for i := range c.shards {
		c.shards[i] = New()
		c.outbox[i] = make([][]xpost, n)
	}
	return c, nil
}

// Shard returns shard i's engine. Scheduling host-local events directly
// on it is the normal way to drive a cluster; only cross-shard effects
// must go through Post.
func (c *Cluster) Shard(i int) *Engine { return c.shards[i] }

// Workers returns the worker count used per window.
func (c *Cluster) Workers() int { return c.workers }

// Now returns the maximum clock value across shards.
func (c *Cluster) Now() Time {
	var t Time
	for _, s := range c.shards {
		if n := s.Now(); n > t {
			t = n
		}
	}
	return t
}

// Post stages fn for execution at time at on shard dst. src names the
// shard (or, between Run calls, the host) on whose behalf the post is
// made; each (src, dst) outbox row is written only by src's executor,
// which is what makes Post safe to call from inside a running window
// without locks. Deliveries are applied at the next barrier.
func (c *Cluster) Post(src, dst int, at Time, fn func()) {
	c.outbox[src][dst] = append(c.outbox[src][dst], xpost{at: at, fn: fn})
}

// Run advances all shards until no events remain anywhere, returning
// the final cluster time. It may be called repeatedly: application code
// typically alternates quiescent app-time work (sends, receives, frees
// — which may touch any host) with Run calls.
//
// Each window advances every shard to the bound, inline with one worker
// or on a persistent pool of goroutines with more. Workers claim shards
// off a shared atomic counter, so shard→worker assignment is
// load-balanced and irrelevant to results: shards are independent
// within a window, and the merge happens single-threaded in drain.
func (c *Cluster) Run() Time {
	// Posts staged at app time carry no in-window causality guarantee;
	// drain them unchecked before the first window forms.
	c.drain(0, false)
	var work chan Time
	var done chan struct{}
	if c.workers > 1 {
		work, done = make(chan Time), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(c.workers)
		for i := 0; i < c.workers; i++ {
			go c.worker(work, done, &wg)
		}
		defer wg.Wait()
		defer close(work)
	}
	for {
		next, ok := c.nextEvent()
		if !ok {
			break
		}
		bound := next.Add(c.lookahead)
		c.claim.Store(0)
		if work == nil {
			c.advance(bound)
		} else {
			for i := 0; i < c.workers; i++ {
				work <- bound
			}
			for i := 0; i < c.workers; i++ {
				<-done
			}
		}
		c.drain(bound, true)
	}
	return c.Now()
}

// worker advances the shards it claims in each window whose bound it
// receives on work, until work is closed.
func (c *Cluster) worker(work <-chan Time, done chan<- struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for bound := range work {
		c.advance(bound)
		done <- struct{}{}
	}
}

// advance runs unclaimed shards to just before bound until every shard
// of the window has been claimed.
func (c *Cluster) advance(bound Time) {
	for s := int(c.claim.Add(1)) - 1; s < len(c.shards); s = int(c.claim.Add(1)) - 1 {
		c.shards[s].RunBefore(bound)
	}
}

// Reset returns the cluster to its post-construction state: every shard
// engine rewinds to time zero with no pending events (retaining its
// event arena, index heap and free list warm), and every staged
// cross-shard post is discarded. Lookahead and worker count are
// construction-time properties and survive. A Reset cluster advances a
// subsequent simulation bit-identically to a freshly built one.
func (c *Cluster) Reset() {
	for _, s := range c.shards {
		s.Reset()
	}
	for src := range c.outbox {
		for dst := range c.outbox[src] {
			c.outbox[src][dst] = c.outbox[src][dst][:0]
		}
	}
	c.claim.Store(0)
}

// nextEvent returns the earliest live pending event time across shards.
func (c *Cluster) nextEvent() (Time, bool) {
	var min Time
	found := false
	for _, s := range c.shards {
		if t, ok := s.NextEventAt(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

// drain applies staged cross-posts in canonical (dst, src, send order)
// sequence. With check set, a post landing before the window bound is a
// causality violation — some component claimed less latency than the
// cluster's lookahead — and panics rather than silently corrupting the
// determinism contract.
func (c *Cluster) drain(bound Time, check bool) {
	for dst := range c.outbox {
		eng := c.shards[dst]
		for src := range c.outbox {
			row := c.outbox[src][dst]
			if len(row) == 0 {
				continue
			}
			for _, p := range row {
				if check && p.at < bound {
					panic(fmt.Sprintf(
						"sim: causality violation: post %d→%d at %v lands inside window bound %v (lookahead %v too large?)",
						src, dst, p.at, bound, c.lookahead))
				}
				eng.ScheduleAt(p.at, p.fn)
			}
			c.outbox[src][dst] = row[:0]
		}
	}
}
