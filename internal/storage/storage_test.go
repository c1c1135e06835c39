package storage

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func testFS(e *sim.Engine, name string, aggBW, streamBW float64) *FS {
	return New(e, Config{
		Name:          name,
		AggregateBW:   aggBW,
		StreamBW:      streamBW,
		MetadataSlots: 2,
		MetadataCost:  time.Millisecond,
	})
}

func TestSingleStreamBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	fs := testFS(e, "fs", 4e9, 1e9) // 4 slots at 1 GB/s
	var took sim.Time
	e.Spawn("reader", func(p *sim.Proc) {
		start := p.Now()
		fs.Read(p, 1e9) // 1 GB at 1 GB/s ~ 1s
		took = p.Now() - start
	})
	e.Run()
	if took < 900*time.Millisecond || took > 1100*time.Millisecond {
		t.Fatalf("1GB read took %v, want ~1s", took)
	}
	if fs.Stats().BytesRead != 1e9 || fs.Stats().Reads != 1 {
		t.Fatalf("stats = %+v", fs.Stats())
	}
}

func TestContentionQueues(t *testing.T) {
	e := sim.NewEngine(1)
	fs := testFS(e, "fs", 2e9, 1e9) // only 2 concurrent streams
	done := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *sim.Proc) {
			fs.Write(p, 1e9)
			done++
		})
	}
	end := e.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	// 4 writes of ~1s each through 2 slots => ~2s (±jitter).
	if end < 1800*time.Millisecond || end > 2300*time.Millisecond {
		t.Fatalf("makespan = %v, want ~2s", end)
	}
}

func TestSmallFilePenalty(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := Config{
		Name: "lustre", AggregateBW: 1e12, StreamBW: 1e9,
		MetadataSlots: 8, MetadataCost: time.Millisecond,
		SmallFileThreshold: 1 << 20, SmallFilePenalty: 10 * time.Millisecond,
	}
	fs := New(e, cfg)
	var small, large sim.Time
	e.Spawn("small", func(p *sim.Proc) {
		s := p.Now()
		fs.Write(p, 1024) // tiny: penalty dominates
		small = p.Now() - s
	})
	e.Spawn("large", func(p *sim.Proc) {
		s := p.Now()
		fs.Write(p, 2<<20) // 2 MiB: no penalty
		large = p.Now() - s
	})
	e.Run()
	if small < 9*time.Millisecond {
		t.Fatalf("small write %v did not pay penalty", small)
	}
	if large > 5*time.Millisecond {
		t.Fatalf("large write %v unexpectedly slow", large)
	}
}

func TestMetadataContention(t *testing.T) {
	e := sim.NewEngine(1)
	fs := New(e, Config{
		Name: "fs", AggregateBW: 1e12, StreamBW: 1e9,
		MetadataSlots: 1, MetadataCost: 10 * time.Millisecond,
	})
	for i := 0; i < 5; i++ {
		e.Spawn("m", func(p *sim.Proc) { fs.MetaOp(p) })
	}
	end := e.Run()
	// 5 serialized ops at ~10ms.
	if end < 45*time.Millisecond || end > 60*time.Millisecond {
		t.Fatalf("5 metadata ops took %v, want ~50ms", end)
	}
	if fs.Stats().MetaOps != 5 {
		t.Fatalf("meta ops = %d", fs.Stats().MetaOps)
	}
}

func TestCreateAndWriteCombines(t *testing.T) {
	e := sim.NewEngine(1)
	fs := testFS(e, "fs", 4e9, 1e9)
	e.Spawn("c", func(p *sim.Proc) { fs.CreateAndWrite(p, 1e6) })
	e.Run()
	st := fs.Stats()
	if st.MetaOps != 1 || st.Writes != 1 || st.BytesWritten != 1e6 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFlowOpsMatchProcOps runs the same contended file traffic twice on
// identically seeded engines, once as processes calling CreateAndWrite
// and ReadFile and once as runs of one program built with their Flow*
// counterparts, and requires the same end times and the same stats.
func TestFlowOpsMatchProcOps(t *testing.T) {
	const workers = 12
	model := func(useProgram bool) ([]sim.Time, Stats) {
		e := sim.NewEngine(9)
		fs := testFS(e, "fs", 2e9, 1e9) // 2 data slots, 2 metadata slots
		var ends []sim.Time
		done := func() { ends = append(ends, e.Now()) }
		pg := sim.NewProgram()
		fs.FlowCreateAndWrite(pg, 3e8)
		fs.FlowReadFile(pg, 1e8)
		pg.Do(done)
		for i := 0; i < workers; i++ {
			if useProgram {
				e.Start(pg, int64(i))
				continue
			}
			e.Spawn("w", func(p *sim.Proc) {
				fs.CreateAndWrite(p, 3e8)
				fs.ReadFile(p, 1e8)
				done()
			})
		}
		e.Run()
		return ends, fs.Stats()
	}
	procEnds, procStats := model(false)
	flowEnds, flowStats := model(true)
	if len(procEnds) != workers || len(flowEnds) != workers {
		t.Fatalf("completed %d / %d, want %d", len(procEnds), len(flowEnds), workers)
	}
	for i := range procEnds {
		if procEnds[i] != flowEnds[i] {
			t.Fatalf("end %d: proc %v, program %v", i, procEnds[i], flowEnds[i])
		}
	}
	if procStats != flowStats || flowStats.Reads != workers || flowStats.MetaOps != 2*workers {
		t.Fatalf("stats: proc %+v, program %+v", procStats, flowStats)
	}
}

func TestCopyThrottledBySlowerSide(t *testing.T) {
	e := sim.NewEngine(1)
	fast := testFS(e, "a-fast", 100e9, 10e9)
	slow := testFS(e, "b-slow", 4e9, 1e9)
	var took sim.Time
	e.Spawn("cp", func(p *sim.Proc) {
		s := p.Now()
		Copy(p, fast, slow, 1e9)
		took = p.Now() - s
	})
	e.Run()
	// Throttled by slow side: ~1s, not ~0.1s.
	if took < 900*time.Millisecond || took > 1100*time.Millisecond {
		t.Fatalf("copy took %v, want ~1s", took)
	}
	if slow.Stats().BytesWritten != 1e9 || fast.Stats().BytesRead != 1e9 {
		t.Fatal("copy accounting wrong")
	}
}

func TestCopyOppositeDirectionsNoDeadlock(t *testing.T) {
	e := sim.NewEngine(1)
	a := testFS(e, "a", 1e9, 1e9) // single slot each
	b := testFS(e, "b", 1e9, 1e9)
	done := 0
	for i := 0; i < 3; i++ {
		e.Spawn("ab", func(p *sim.Proc) { Copy(p, a, b, 1e8); done++ })
		e.Spawn("ba", func(p *sim.Proc) { Copy(p, b, a, 1e8); done++ })
	}
	e.Run()
	if done != 6 {
		t.Fatalf("done = %d (deadlock?)", done)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", e.LiveProcs())
	}
}

func TestNVMeFasterThanLustreForSmallFiles(t *testing.T) {
	// The Fig 1 best practice: per-task stdout files go to NVMe.
	e := sim.NewEngine(7)
	lustre := New(e, LustreProfile())
	nvme := New(e, NVMeProfile(0))
	var lustreTime, nvmeTime sim.Time
	e.Spawn("lustre-writer", func(p *sim.Proc) {
		s := p.Now()
		for i := 0; i < 128; i++ {
			lustre.CreateAndWrite(p, 512)
		}
		lustreTime = p.Now() - s
	})
	e.Spawn("nvme-writer", func(p *sim.Proc) {
		s := p.Now()
		for i := 0; i < 128; i++ {
			nvme.CreateAndWrite(p, 512)
		}
		nvmeTime = p.Now() - s
	})
	e.Run()
	if nvmeTime*10 > lustreTime {
		t.Fatalf("NVMe (%v) should be >10x faster than Lustre (%v) for small files", nvmeTime, lustreTime)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bandwidth accepted")
		}
	}()
	New(sim.NewEngine(1), Config{Name: "bad"})
}

// Property: aggregate throughput never exceeds AggregateBW: n concurrent
// 1-GB writes through k slots take >= n/k * (1GB/streamBW) * 0.95.
func TestPropertyAggregateBandwidthCap(t *testing.T) {
	f := func(n8, k8 uint8) bool {
		n := int(n8%12) + 1
		k := int(k8%4) + 1
		e := sim.NewEngine(uint64(n)*31 + uint64(k))
		fs := New(e, Config{
			Name:        "fs",
			AggregateBW: float64(k) * 1e9,
			StreamBW:    1e9,
		})
		for i := 0; i < n; i++ {
			e.Spawn("w", func(p *sim.Proc) { fs.Write(p, 1e9) })
		}
		end := e.Run()
		waves := (n + k - 1) / k
		minTime := time.Duration(float64(waves) * 0.95 * float64(time.Second))
		return end >= minTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
