// Package storage models filesystem performance for the simulated HPC
// substrate: a shared parallel filesystem (Lustre-like: large aggregate
// bandwidth, contended metadata service, small-file penalty) and per-node
// local NVMe (lower aggregate, near-zero latency, no cross-node
// contention).
//
// The bandwidth model is a service-slot approximation: a filesystem with
// aggregate bandwidth B and per-stream bandwidth b exposes B/b concurrent
// service slots; a transfer holds one slot for size/b. This reproduces
// the two behaviors the paper's workflows depend on: uncontended streams
// see per-stream speed, and saturated filesystems queue.
package storage

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Config describes a filesystem's performance envelope.
type Config struct {
	Name string
	// AggregateBW is the total deliverable bandwidth, bytes/s.
	AggregateBW float64
	// StreamBW is the per-stream bandwidth ceiling, bytes/s.
	StreamBW float64
	// MetadataSlots is the concurrency of the metadata service.
	MetadataSlots int
	// MetadataCost is the service time of one metadata operation
	// (create/open/unlink).
	MetadataCost time.Duration
	// SmallFileThreshold: writes below this size still pay
	// SmallFilePenalty of service time, modelling per-op overheads that
	// dominate small-file I/O on parallel filesystems.
	SmallFileThreshold int64
	SmallFilePenalty   time.Duration
}

// FS is a simulated filesystem instance.
type FS struct {
	cfg   Config
	data  *sim.Resource
	meta  *sim.Resource
	rng   *sim.RNG
	stats Stats
	// Pre-bound method values handed to program steps, so the metadata
	// steps share one closure per filesystem.
	metaDurFn   func() time.Duration
	recMetaOpFn func()
}

// Stats aggregates filesystem activity.
type Stats struct {
	BytesRead, BytesWritten int64
	Reads, Writes, MetaOps  int64
}

// New creates a filesystem on engine e from cfg, with jitter draws from
// the engine's own RNG tree.
func New(e *sim.Engine, cfg Config) *FS {
	return NewWithRand(e, cfg, e.RNG().Split("storage/"+cfg.Name))
}

// NewWithRand is New with an explicit random stream. Sharded models need
// it: group engines carry distinct RNG seeds (and the serial oracle has
// only one engine), so digest-stable filesystems must draw from a stream
// derived from the model's base RNG, not from whatever engine hosts them.
func NewWithRand(e *sim.Engine, cfg Config, rng *sim.RNG) *FS {
	if cfg.StreamBW <= 0 || cfg.AggregateBW <= 0 {
		panic(fmt.Sprintf("storage: %s: bandwidths must be positive", cfg.Name))
	}
	slots := int(cfg.AggregateBW / cfg.StreamBW)
	if slots < 1 {
		slots = 1
	}
	metaSlots := cfg.MetadataSlots
	if metaSlots < 1 {
		metaSlots = 1
	}
	f := &FS{
		cfg:  cfg,
		data: sim.NewResource(e, slots),
		meta: sim.NewResource(e, metaSlots),
		rng:  rng,
	}
	f.metaDurFn = f.metaDur
	f.recMetaOpFn = f.recordMetaOp
	return f
}

// Name returns the configured name.
func (f *FS) Name() string { return f.cfg.Name }

// Config returns the configuration.
func (f *FS) Config() Config { return f.cfg }

// Stats returns a snapshot of accumulated counters.
func (f *FS) Stats() Stats { return f.stats }

// QueueLen reports transfers waiting for a data service slot — a direct
// measure of filesystem contention.
func (f *FS) QueueLen() int { return f.data.QueueLen() }

// transferTime returns the service time for moving size bytes on one
// stream, with ±5% jitter.
func (f *FS) transferTime(size int64) time.Duration {
	secs := float64(size) / f.cfg.StreamBW
	d := sim.Dur(secs)
	if size < f.cfg.SmallFileThreshold {
		d += f.cfg.SmallFilePenalty
	}
	return f.rng.Jitter(d, 0.05)
}

// metaDur draws one metadata service time.
func (f *FS) metaDur() time.Duration { return f.rng.Jitter(f.cfg.MetadataCost, 0.1) }

func (f *FS) recordWrite(size int64) { f.stats.BytesWritten += size; f.stats.Writes++ }
func (f *FS) recordRead(size int64)  { f.stats.BytesRead += size; f.stats.Reads++ }
func (f *FS) recordMetaOp()          { f.stats.MetaOps++ }

// Read performs a size-byte read, blocking p for queueing + service time.
func (f *FS) Read(p *sim.Proc, size int64) {
	f.data.Acquire(p, 1)
	p.Sleep(f.transferTime(size))
	f.data.Release(1)
	f.recordRead(size)
}

// Write performs a size-byte write.
func (f *FS) Write(p *sim.Proc, size int64) {
	f.data.Acquire(p, 1)
	p.Sleep(f.transferTime(size))
	f.data.Release(1)
	f.recordWrite(size)
}

// MetaOp performs one metadata operation (create/stat/unlink), queueing on
// the metadata service.
func (f *FS) MetaOp(p *sim.Proc) {
	f.meta.Acquire(p, 1)
	p.Sleep(f.metaDur())
	f.meta.Release(1)
	f.recordMetaOp()
}

// CreateAndWrite models writing a new file: one metadata op plus the data
// transfer. This is the per-task stdout-file pattern whose cost on Lustre
// motivates the paper's NVMe staging best practice.
func (f *FS) CreateAndWrite(p *sim.Proc, size int64) {
	f.MetaOp(p)
	f.Write(p, size)
}

// ReadFile models opening and reading an existing file.
func (f *FS) ReadFile(p *sim.Proc, size int64) {
	f.MetaOp(p)
	f.Read(p, size)
}

// --- Program counterparts -------------------------------------------------
//
// These append the same operations to a step program (sim.Program)
// instead of blocking a process. Service-time draws happen when the step
// executes — after the resource grant, exactly where the process
// versions draw — so a model switched from the Proc methods to the Flow
// methods produces bit-identical seeded results. The size is fixed when
// the program is built: every run of it moves the same bytes.

// FlowRead appends a size-byte read to pg.
func (f *FS) FlowRead(pg *sim.Program, size int64) {
	pg.Acquire(f.data, 1)
	pg.SleepFn(func() time.Duration { return f.transferTime(size) })
	pg.Release(f.data, 1)
	pg.Do(func() { f.recordRead(size) })
}

// FlowWrite appends a size-byte write to pg.
func (f *FS) FlowWrite(pg *sim.Program, size int64) {
	pg.Acquire(f.data, 1)
	pg.SleepFn(func() time.Duration { return f.transferTime(size) })
	pg.Release(f.data, 1)
	pg.Do(func() { f.recordWrite(size) })
}

// FlowMetaOp appends one metadata operation to pg.
func (f *FS) FlowMetaOp(pg *sim.Program) {
	pg.Acquire(f.meta, 1)
	pg.SleepFn(f.metaDurFn)
	pg.Release(f.meta, 1)
	pg.Do(f.recMetaOpFn)
}

// FlowCreateAndWrite appends a file creation (metadata op + data
// transfer) to pg — the program form of CreateAndWrite, for per-task
// output files in full-scale experiment loops.
func (f *FS) FlowCreateAndWrite(pg *sim.Program, size int64) {
	f.FlowMetaOp(pg)
	f.FlowWrite(pg, size)
}

// FlowReadFile appends opening and reading an existing file to pg.
func (f *FS) FlowReadFile(pg *sim.Program, size int64) {
	f.FlowMetaOp(pg)
	f.FlowRead(pg, size)
}

// Unlink removes a file (metadata only).
func (f *FS) Unlink(p *sim.Proc) { f.MetaOp(p) }

// Copy moves size bytes from src to dst: the stream is throttled by the
// slower side, holding a slot on each for the full transfer (a synchronous
// copy, rsync without delta). Slots are acquired in a global order (by
// filesystem name) so concurrent copies in opposite directions cannot
// deadlock.
func Copy(p *sim.Proc, src, dst *FS, size int64) {
	first, second := src, dst
	if second.cfg.Name < first.cfg.Name {
		first, second = second, first
	}
	first.data.Acquire(p, 1)
	if second != first {
		second.data.Acquire(p, 1)
	}
	t := src.transferTime(size)
	if dt := dst.transferTime(size); dt > t {
		t = dt
	}
	p.Sleep(t)
	if second != first {
		second.data.Release(1)
	}
	first.data.Release(1)
	src.stats.BytesRead += size
	src.stats.Reads++
	dst.stats.BytesWritten += size
	dst.stats.Writes++
}

// --- Profiles -------------------------------------------------------------

// LustreProfile approximates a leadership-class shared parallel filesystem
// (OLCF Orion-like), scaled so a few-thousand-node simulation exhibits the
// paper's contention behaviors without requiring absolute fidelity.
func LustreProfile() Config {
	return Config{
		Name:        "lustre",
		AggregateBW: 5e12, // 5 TB/s aggregate
		StreamBW:    2e9,  // 2 GB/s per stream
		// The metadata service is the scarce resource for small-file
		// storms: ~20k creates/s system-wide (64 x 1/3ms).
		MetadataSlots:      64,
		MetadataCost:       3 * time.Millisecond,
		SmallFileThreshold: 1 << 20, // files < 1 MiB pay the penalty
		SmallFilePenalty:   4 * time.Millisecond,
	}
}

// NVMeProfile approximates a node-local NVMe drive ("burst buffer").
func NVMeProfile(node int) Config {
	return Config{
		Name:               fmt.Sprintf("nvme-%d", node),
		AggregateBW:        5e9, // 5 GB/s
		StreamBW:           1e9, // 1 GB/s per stream
		MetadataSlots:      64,
		MetadataCost:       30 * time.Microsecond,
		SmallFileThreshold: 0, // local writes: no small-file penalty
	}
}

// GPFSProfile approximates the source filesystem of the paper's petabyte
// migration (§IV-E).
func GPFSProfile() Config {
	return Config{
		Name:               "gpfs",
		AggregateBW:        2.4e12,
		StreamBW:           1.5e9,
		MetadataSlots:      192,
		MetadataCost:       3 * time.Millisecond,
		SmallFileThreshold: 1 << 20,
		SmallFilePenalty:   5 * time.Millisecond,
	}
}
