package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/mem"
	"repro/internal/topo"
)

// Cluster experiments: the sharded multi-host engine driven by the two
// canonical communication shapes — incast fan-in (many senders converge
// on one receiver's ports and pools, the stress case for the paper's
// buffering architectures) and ring halo exchange (the bulk-parallel
// steady state). Both run the identical seeded workload at several
// worker counts; the delivery digest must be byte-identical at all of
// them, and the wall-clock ratio is the engine's self-speedup.

// ClusterBenchConfig parameterizes one cluster workload.
type ClusterBenchConfig struct {
	// Hosts is the cluster size; incast uses one receiver plus Hosts-1
	// senders. 0 defaults to 64 for incast, 8 for ring.
	Hosts int
	// Rounds is the number of lockstep send/drain rounds; 0 → 4.
	Rounds int
	// MsgBytes is the payload size per message; 0 → 8192 (incast) or
	// 32768 (ring).
	MsgBytes int
	// Workers lists the worker counts to compare; empty → 1 and 4. The
	// first run is the digest and wall-clock baseline.
	Workers []int
}

func (c ClusterBenchConfig) withDefaults(defaultHosts, defaultMsg int) ClusterBenchConfig {
	if c.Hosts <= 1 {
		c.Hosts = defaultHosts
	}
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	if c.MsgBytes <= 0 {
		c.MsgBytes = defaultMsg
	}
	return c
}

// ClusterReport summarizes a cluster benchmark: the runs at each worker
// count, whether every digest matched the first run's, and the best
// observed self-speedup over that first run.
type ClusterReport struct {
	Mode     string `json:"mode"` // "incast" or "ring"
	Hosts    int    `json:"hosts"`
	Rounds   int    `json:"rounds"`
	MsgBytes int    `json:"msg_bytes"`
	Verification
	// FinalTimeUS is the simulated time the workload ends at. It is
	// folded into the digest, so it is the same at every worker count.
	FinalTimeUS float64 `json:"final_time_us"`
	BestSpeedup float64 `json:"best_speedup"`
	BestWorkers int     `json:"best_workers"`
}

// stamp writes the per-message identity into the payload head. The body
// keeps its constant fill: re-stamping every byte of every message is
// pure serial app-time work between windows and would cap the engine's
// measurable self-speedup (Amdahl), without adding any discriminating
// power the digest's head checksum doesn't already have.
func stamp(payload []byte, round, ch, dir int) {
	n := len(payload)
	if n > 16 {
		n = 16
	}
	for j := 0; j < n; j++ {
		payload[j] = byte(round*131 + ch*17 + dir*91 + j)
	}
}

// drainInto consumes every completed message on e, folds each into the
// digest, and reposts its buffer. The digest takes every delivery record
// and, after the last round, the final stats: if any worker count
// perturbs a single delivery time, payload byte, or stat counter, it
// changes. Payloads enter through the shared strided checksum (see
// digest.PayloadSum for why sampling, not summing, is the right
// cost/discrimination trade).
func drainInto(d *digest.Digest, round, ch int, e *core.Endpoint) error {
	for {
		m, ok := e.Recv()
		if !ok {
			return nil
		}
		if m.Err() != nil {
			return fmt.Errorf("cluster: delivery error on port %d: %w", e.Port(), m.Err())
		}
		data := m.Data()
		d.Addf("r%d c%d p%d len=%d at=%x sum=%08x\n",
			round, ch, e.Port(), len(data), m.CompletedAt(), digest.PayloadSum(data))
		d.Record()
		if err := m.Release(); err != nil {
			return err
		}
	}
}

// runIncastOnce executes the incast workload at one worker count:
// Hosts-1 senders each push Rounds messages at host 0 in lockstep
// rounds, every round fully drained before the next begins. The
// receiver's NIC, kernel pool, and egress port absorb the full fan-in.
func runIncastOnce(cfg ClusterBenchConfig, workers int) (WorkerRun, float64, error) {
	pages := func(n int) int { return (n + 4095) / 4096 }
	bufPages := pages(cfg.MsgBytes)
	senders := cfg.Hosts - 1
	gcfg := core.DefaultConfig()
	// Aligned/system input buffers for every in-flight message of the
	// full fan-in, with headroom for rotation.
	gcfg.KernelPoolPages = 4*senders*bufPages + 64
	ccfg := core.ClusterConfig{
		TestbedConfig: core.TestbedConfig{
			// Symbolic plane: a million-page incast shouldn't memcpy;
			// figures are plane-invariant.
			Plane: mem.Symbolic,
			// Channel tx+rx windows on the receiver plus kernel pool.
			FramesPerHost: 8*senders*bufPages + gcfg.KernelPoolPages + 256,
			Genie:         gcfg,
		},
		Topo:    topo.Incast(cfg.Hosts),
		Workers: workers,
	}
	c, err := core.NewCluster(ccfg)
	if err != nil {
		return WorkerRun{}, 0, err
	}
	recv := c.Host(0).Genie.NewProcess()
	type chanEnd struct{ s, r *core.Endpoint }
	ends := make([]chanEnd, senders)
	for i := 0; i < senders; i++ {
		p := c.Host(i + 1).Genie.NewProcess()
		es, er, err := c.Connect(p, recv, core.EmulatedCopy, cfg.MsgBytes, 2)
		if err != nil {
			return WorkerRun{}, 0, err
		}
		ends[i] = chanEnd{s: es, r: er}
	}
	d := digest.New()
	payload := make([]byte, cfg.MsgBytes)
	for j := range payload {
		payload[j] = byte(j * 7)
	}
	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		for i, e := range ends {
			stamp(payload, round, i, 0)
			if err := e.s.Send(payload); err != nil {
				return WorkerRun{}, 0, fmt.Errorf("cluster: incast round %d sender %d: %w", round, i, err)
			}
		}
		c.Run()
		for i, e := range ends {
			if err := drainInto(d, round, i, e.r); err != nil {
				return WorkerRun{}, 0, err
			}
		}
	}
	run, final := finishClusterRun(c, d, start)
	return run, final, nil
}

// runRingOnce executes the halo-exchange workload at one worker count:
// every host sends its boundary slab to both ring neighbors each round.
// Unlike incast this uses the Bytes plane — every page is materialized
// and copied — so per-shard work is substantial and the workload is the
// self-speedup measurement vehicle.
func runRingOnce(cfg ClusterBenchConfig, workers int) (WorkerRun, float64, error) {
	pages := func(n int) int { return (n + 4095) / 4096 }
	bufPages := pages(cfg.MsgBytes)
	gcfg := core.DefaultConfig()
	gcfg.KernelPoolPages = 16*bufPages + 64
	ccfg := core.ClusterConfig{
		TestbedConfig: core.TestbedConfig{
			Plane:         mem.Bytes,
			FramesPerHost: 32*bufPages + gcfg.KernelPoolPages + 256,
			Genie:         gcfg,
		},
		Topo:    topo.Ring(cfg.Hosts),
		Workers: workers,
	}
	c, err := core.NewCluster(ccfg)
	if err != nil {
		return WorkerRun{}, 0, err
	}
	procs := make([]*core.Process, cfg.Hosts)
	for i := range procs {
		procs[i] = c.Host(i).Genie.NewProcess()
	}
	type duplex struct{ a, b *core.Endpoint }
	links := make([]duplex, len(ccfg.Topo.Pairs))
	for i, p := range ccfg.Topo.Pairs {
		ea, eb, err := c.Connect(procs[p[0]], procs[p[1]], core.EmulatedCopy, cfg.MsgBytes, 2)
		if err != nil {
			return WorkerRun{}, 0, err
		}
		links[i] = duplex{a: ea, b: eb}
	}
	d := digest.New()
	payload := make([]byte, cfg.MsgBytes)
	for j := range payload {
		payload[j] = byte(j * 7)
	}
	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		for i, l := range links {
			stamp(payload, round, i, 0)
			if err := l.a.Send(payload); err != nil {
				return WorkerRun{}, 0, fmt.Errorf("cluster: ring round %d link %d fwd: %w", round, i, err)
			}
			stamp(payload, round, i, 1)
			if err := l.b.Send(payload); err != nil {
				return WorkerRun{}, 0, fmt.Errorf("cluster: ring round %d link %d rev: %w", round, i, err)
			}
		}
		c.Run()
		for i, l := range links {
			if err := drainInto(d, round, i, l.a); err != nil {
				return WorkerRun{}, 0, err
			}
			if err := drainInto(d, round, i, l.b); err != nil {
				return WorkerRun{}, 0, err
			}
		}
	}
	run, final := finishClusterRun(c, d, start)
	return run, final, nil
}

// finishClusterRun runs c to quiescence after the send/drain loop that
// began at start, folds every host's final stats and the end time into
// d, and returns the run with that end time in µs. Only the loop is
// timed: cluster construction is not the engine's work.
func finishClusterRun(c *core.Cluster, d *digest.Digest, start time.Time) (WorkerRun, float64) {
	final := float64(c.Run())
	elapsed := time.Since(start)
	for i := 0; i < c.Size(); i++ {
		d.Addf("host%d nic=%+v genie=%+v\n", i, c.Host(i).NIC.Stats(), c.Host(i).Genie.Stats())
	}
	d.Addf("final=%x\n", final)
	return WorkerRun{Digest: d.Hex(), Records: d.Records(), ElapsedSec: elapsed.Seconds()}, final
}

// verifyCluster runs one workload at every configured worker count and
// reads the self-speedup over the first run off the verified runs.
func verifyCluster(mode string, cfg ClusterBenchConfig, once func(ClusterBenchConfig, int) (WorkerRun, float64, error)) (*ClusterReport, error) {
	rep := &ClusterReport{Mode: mode, Hosts: cfg.Hosts, Rounds: cfg.Rounds, MsgBytes: cfg.MsgBytes}
	var err error
	rep.Verification, err = verifyWorkers(cfg.Workers, func(w int) (WorkerRun, error) {
		run, final, err := once(cfg, w)
		rep.FinalTimeUS = final
		return run, err
	})
	if err != nil {
		return nil, err
	}
	base := rep.Runs[0].ElapsedSec
	for _, r := range rep.Runs {
		if r.ElapsedSec > 0 && base/r.ElapsedSec > rep.BestSpeedup {
			rep.BestSpeedup, rep.BestWorkers = base/r.ElapsedSec, r.Workers
		}
	}
	return rep, nil
}

// RunIncast runs the incast determinism benchmark: Hosts-1 senders
// converging on one receiver, digest-compared across worker counts.
func RunIncast(cfg ClusterBenchConfig) (*ClusterReport, error) {
	return verifyCluster("incast", cfg.withDefaults(64, 8192), runIncastOnce)
}

// RunRing runs the halo-exchange benchmark on the Bytes plane: the
// self-speedup measurement with the same digest comparison.
func RunRing(cfg ClusterBenchConfig) (*ClusterReport, error) {
	return verifyCluster("ring", cfg.withDefaults(8, 32768), runRingOnce)
}
