package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// TestGoldenCopySchedule is TestGoldenSendSchedule one layer up: it pins
// the modelled schedule of the copy pipeline — staging slots, posted
// receives, per-block bookkeeping, the DMA engine, block sends and their
// deadlines — against literals recorded while every pipeline stage was
// still a process per block. One front-end, one daemon, QDR InfiniBand.
// Each scenario records when every copy completed on the front-end, when
// every daemon response entered the wire, the error each copy returned,
// the daemon's block and staging counters, the device's counters, a hash
// over every message that entered the wire (instant, ranks, tag, size, in
// order) and the instant the simulation drained. Any reordering of a
// pipeline stage's events moves at least one literal below.
func TestGoldenCopySchedule(t *testing.T) {
	const k, m = netmodel.KiB, netmodel.MiB
	pipe128 := Options{H2D: PaperPipeline(128 * k), D2H: PaperPipeline(128 * k)}
	timeout := DefaultDaemonConfig()
	timeout.PayloadTimeout = 5 * sim.Millisecond
	patient := pipe128
	patient.Timeout, patient.Retries = 20*sim.Millisecond, 1

	// roundTrips uploads then downloads each size on stream 0.
	roundTrips := func(sizes ...int) func(*sim.Proc, *goldenBed) {
		return func(p *sim.Proc, gb *goldenBed) {
			ptr := gb.alloc(p, 20*m)
			for _, n := range sizes {
				gb.note(p, gb.a.MemcpyH2D(p, ptr, 0, nil, n))
				gb.note(p, gb.a.MemcpyD2H(p, nil, ptr, 0, n))
			}
		}
	}
	scenarios := []struct {
		name string
		exec bool
		opts Options
		cfg  DaemonConfig
		run  func(*sim.Proc, *goldenBed)
		want copySchedule
	}{
		{
			// nb < depth, nb = depth, nb >> depth, and a short eager tail block.
			name: "pipeline 128K", opts: pipe128, cfg: DefaultDaemonConfig(),
			run: roundTrips(256*k, 512*k, 4*m, 1*m+4097),
			want: copySchedule{
				client:   []sim.Time{152578, 294848, 532694, 775346, 2403140, 4051140, 4501135, 4948458},
				daemon:   []sim.Time{12156, 150720, 291840, 530836, 772338, 2401282, 4048132, 4499277, 4945450, 4950611},
				errs:     []string{"", "", "", "", "", "", "", ""},
				blocksIn: 47, blocksOut: 47, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 6033409, BytesOut: 6033409, Launches: 0, Busy: 2857933},
				wireMsgs: 114, wireHash: 0x75c6f8c803eb4d5f, end: 4955319,
			},
		},
		{
			// The paper's defaults: 128K blocks below 9 MiB up, 512K above;
			// 128K blocks down.
			name: "adaptive", opts: DefaultOptions(), cfg: DefaultDaemonConfig(),
			run: roundTrips(1*m, 16*m),
			want: copySchedule{
				client:   []sim.Time{450424, 893840, 7064370, 13530706},
				daemon:   []sim.Time{12156, 448566, 890832, 7062512, 13527698, 13532859},
				errs:     []string{"", "", "", ""},
				blocksIn: 40, blocksOut: 136, stagingPeak: 2097152,
				gpu:      gpu.Stats{BytesIn: 17825792, BytesOut: 17825792, Launches: 0, Busy: 7528320},
				wireMsgs: 188, wireHash: 0xe1a2cf51850f9647, end: 13537567,
			},
		},
		{
			// Every socket-mode daemon runs with a payload deadline: each
			// block wait that can time out leaves its timer in the heap.
			name: "pipeline 128K with deadline", opts: pipe128, cfg: timeout,
			run: roundTrips(256*k, 4*m),
			want: copySchedule{
				client:   []sim.Time{152578, 294848, 1922642, 3570642},
				daemon:   []sim.Time{12156, 150720, 291840, 1920784, 3567634, 3572795},
				errs:     []string{"", "", "", ""},
				blocksIn: 34, blocksOut: 34, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 4456448, BytesOut: 4456448, Launches: 0, Busy: 2098072},
				wireMsgs: 80, wireHash: 0x66c389bfc1aaf854, end: 8401727,
			},
		},
		{
			// Execute mode, a window whose blocks cut through columns.
			name: "strided window", exec: true, opts: Options{H2D: PaperPipeline(24 * k), D2H: PaperPipeline(40 * k)}, cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				const colBytes, cols, pitch, off = 10000, 37, 12288, 512
				ptr := gb.alloc(p, off+cols*pitch)
				src := pattern(colBytes * cols)
				gb.note(p, gb.a.MemcpyH2D2D(p, ptr, off, colBytes, cols, pitch, src))
				got := make([]byte, len(src))
				gb.note(p, gb.a.MemcpyD2H2DAsync(got, ptr, off, colBytes, cols, pitch, 0).Wait(p))
				if !bytes.Equal(got, src) {
					t.Error("strided window: downloaded bytes differ from the uploaded ones")
				}
			},
			want: copySchedule{
				client:   []sim.Time{242533, 435349},
				daemon:   []sim.Time{12156, 240675, 432341, 437502},
				errs:     []string{"", ""},
				blocksIn: 16, blocksOut: 10, stagingPeak: 163840,
				gpu:      gpu.Stats{BytesIn: 370000, BytesOut: 370000, Launches: 0, Busy: 357381},
				wireMsgs: 34, wireHash: 0xd9093ce4a3198921, end: 442210,
			},
		},
		{
			// Three streams, one DMA engine: two uploads and a download
			// interleave block by block.
			name: "three streams", opts: pipe128, cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				a, b, c := gb.alloc(p, 4*m), gb.alloc(p, 4*m), gb.alloc(p, 4*m)
				pds := []*Pending{
					gb.a.MemcpyH2DAsync(a, 0, nil, 4*m, 1),
					gb.a.MemcpyD2HAsync(nil, b, 0, 3*m, 2),
					gb.a.MemcpyH2DAsync(c, 0, nil, 2*m+100, 3),
				}
				gb.noteAll(p, pds)
			},
			want: copySchedule{
				client:   []sim.Time{2472623, 1617830, 1788712},
				daemon:   []sim.Time{12156, 26170, 40184, 1614822, 1786854, 2470765, 2474776},
				errs:     []string{"", "", ""},
				blocksIn: 49, blocksOut: 24, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 6291556, BytesOut: 3145728, Launches: 0, Busy: 2226832},
				wireMsgs: 87, wireHash: 0x7cdd7e47618d7885, end: 2479484,
			},
		},
		{
			// A refused window: the upload drains, the download ships nb
			// empty blocks, and both answer with the range error.
			name: "bad range", opts: pipe128, cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				ptr := gb.alloc(p, 1*m)
				gb.note(p, gb.a.MemcpyH2D(p, ptr, 512*k, nil, 1*m))
				gb.note(p, gb.a.MemcpyD2H(p, nil, ptr, 512*k, 1*m))
				gb.note(p, gb.a.MemcpyH2D(p, ptr, 0, nil, 1*m))
			},
			want: copySchedule{
				client:   []sim.Time{450447, 489501, 925911},
				daemon:   []sim.Time{12156, 448566, 486470, 924053, 928064},
				errs:     []string{"core: accelerator error: gpu: access [524288,1572864) beyond allocation of 1048576 bytes", "core: accelerator error: gpu: access [524288,1572864) beyond allocation of 1048576 bytes", ""},
				blocksIn: 16, blocksOut: 8, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 2097152, BytesOut: 0, Launches: 0, Busy: 491216},
				wireMsgs: 34, wireHash: 0x99f8f0e9d0caf7a6, end: 932772,
			},
		},
		{
			// The GPU dies under an upload, stays dead for a download, is
			// repaired and dies again under a download.
			name: "gpu fails mid-transfer", opts: pipe128, cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				ptr := gb.alloc(p, 4*m)
				gb.sim.After(600*sim.Microsecond, func() { gb.dev.Fail("golden") })
				gb.note(p, gb.a.MemcpyH2D(p, ptr, 0, nil, 4*m))
				gb.note(p, gb.a.MemcpyD2H(p, nil, ptr, 0, 1*m))
				gb.dev.Repair()
				gb.sim.After(700*sim.Microsecond, func() { gb.dev.Fail("golden again") })
				gb.note(p, gb.a.MemcpyD2H(p, nil, ptr, 0, 4*m))
			},
			want: copySchedule{
				client:   []sim.Time{1611118, 2023538, 3671552},
				daemon:   []sim.Time{12156, 1609249, 2020519, 3668530, 3673705},
				errs:     []string{"core: accelerator error: gpu: ac0: device failed: golden", "core: accelerator error: gpu: ac0: device failed: golden", "core: accelerator error: gpu: ac0: device failed: golden again"},
				blocksIn: 32, blocksOut: 40, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 1441792, BytesOut: 2228224, Launches: 0, Busy: 864830},
				wireMsgs: 82, wireHash: 0xe39cd97c08c86317, end: 3678413,
			},
		},
		{
			// A front-end that dies after two of six upload blocks, then one
			// that asks for six download blocks and receives only the first:
			// both transfers wind down on the payload deadline.
			name: "payload deadline expires", opts: pipe128, cfg: timeout,
			run: func(p *sim.Proc, gb *goldenBed) {
				const block, nb = 128 * k, 6
				ptr := gb.alloc(p, nb*block)
				comm := gb.world.Comm(0)

				up := uint64(1) << 40 // clear of the front-end's own sequence
				resp := comm.Irecv(1, respTag(up))
				gb.rawSend(up, &request{op: OpMemcpyH2D, ptr: ptr, size: nb * block, block: block, depth: 4})
				for i := 0; i < 2; i++ {
					comm.IsendSized(1, dataTag(up), block)
				}
				gb.note(p, rawErr(resp.Wait(p)))

				down := up + 1
				resp = comm.Irecv(1, respTag(down))
				first := comm.Irecv(1, dataTag(down))
				gb.rawSend(down, &request{op: OpMemcpyD2H, ptr: ptr, size: nb * block, block: block, depth: 4})
				first.Wait(p)
				gb.note(p, rawErr(resp.Wait(p)))

				// The daemon is whole again afterwards.
				gb.note(p, gb.a.MemcpyH2D(p, ptr, 0, nil, nb*block))
			},
			want: copySchedule{
				client:   []sim.Time{20121893, 30226959, 30564087},
				daemon:   []sim.Time{12156, 20120019, 30225087, 30562229, 30566240},
				errs:     []string{"core: accelerator error: core: payload block 3/6 from rank 0 timed out", "core: accelerator error: core: payload block to rank 0 timed out", ""},
				blocksIn: 8, blocksOut: 6, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 1048576, BytesOut: 786432, Launches: 0, Busy: 431650},
				wireMsgs: 24, wireHash: 0x7fe20a9980b749f7, end: 35481737,
			},
		},
		{
			// A front-end with a request timeout: every block wait it makes
			// leaves its timer in the heap too.
			name: "front-end deadline", opts: patient, cfg: DefaultDaemonConfig(),
			run: roundTrips(256*k, 4*m),
			want: copySchedule{
				client:   []sim.Time{152578, 294848, 1922642, 3570642},
				daemon:   []sim.Time{12156, 150720, 291840, 1920784, 3567634, 3572795},
				errs:     []string{"", "", "", ""},
				blocksIn: 34, blocksOut: 34, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 4456448, BytesOut: 4456448, Launches: 0, Busy: 2098072},
				wireMsgs: 80, wireHash: 0x66c389bfc1aaf854, end: 23570642,
			},
		},
		{
			// The daemon crashes under an upload and a download: the
			// front-end's block waits run out, in both directions.
			name: "daemon dies mid-transfer", opts: patient, cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				a, b := gb.alloc(p, 4*m), gb.alloc(p, 4*m)
				gb.sim.After(600*sim.Microsecond, gb.d.Kill)
				gb.noteAll(p, []*Pending{
					gb.a.MemcpyH2DAsync(a, 0, nil, 4*m, 1),
					gb.a.MemcpyD2HAsync(nil, b, 0, 4*m, 2),
				})
			},
			want: copySchedule{
				client:   []sim.Time{20673800, 20645099},
				daemon:   []sim.Time{12156, 26170},
				errs:     []string{"core: payload transfer to accelerator rank 1 timed out after 1 attempt(s)", "core: payload transfer to accelerator rank 1 timed out after 1 attempt(s)"},
				blocksIn: 11, blocksOut: 10, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 1048576, BytesOut: 1441792, Launches: 0, Busy: 586685},
				wireMsgs: 49, wireHash: 0xbb4c3e50fafdc84d, end: 20673800,
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			gb := newGoldenBed(t, sc.exec, sc.opts, sc.cfg)
			got := gb.run(t, func(p *sim.Proc) { sc.run(p, gb) })
			if !reflect.DeepEqual(got, sc.want) {
				t.Errorf("schedule moved:\n got %s\nwant %s", got.literal(), sc.want.literal())
			}
		})
	}
}

// copySchedule is what one golden scenario records.
type copySchedule struct {
	client      []sim.Time // each copy's completion on the front-end, in issue order
	daemon      []sim.Time // each daemon response entering the wire, in order
	errs        []string   // each copy's error, "" for none
	blocksIn    int64
	blocksOut   int64
	stagingPeak int64
	gpu         gpu.Stats
	wireMsgs    int
	wireHash    uint64
	end         sim.Time
}

// literal prints the record as the Go literal the table above holds.
func (cs copySchedule) literal() string {
	times := func(ts []sim.Time) string {
		parts := make([]string, len(ts))
		for i, v := range ts {
			parts[i] = fmt.Sprint(int64(v))
		}
		return "[]sim.Time{" + strings.Join(parts, ", ") + "}"
	}
	return fmt.Sprintf("copySchedule{\n\tclient: %s,\n\tdaemon: %s,\n\terrs: %#v,\n\tblocksIn: %d, blocksOut: %d, stagingPeak: %d,\n\tgpu: gpu.Stats{BytesIn: %d, BytesOut: %d, Launches: %d, Busy: %d},\n\twireMsgs: %d, wireHash: %#x, end: %d,\n}",
		times(cs.client), times(cs.daemon), cs.errs, cs.blocksIn, cs.blocksOut, cs.stagingPeak,
		cs.gpu.BytesIn, cs.gpu.BytesOut, cs.gpu.Launches, int64(cs.gpu.Busy), cs.wireMsgs, cs.wireHash, int64(cs.end))
}

// goldenBed is one front-end (rank 0) and one daemon (rank 1) over QDR
// InfiniBand, with every message entering the wire folded into the record.
type goldenBed struct {
	sim   *sim.Simulation
	world *minimpi.World
	a     *Accel
	d     *Daemon
	dev   *gpu.Device
	got   copySchedule
}

func newGoldenBed(t *testing.T, exec bool, opts Options, cfg DaemonConfig) *goldenBed {
	t.Helper()
	s := sim.New()
	w, err := minimpi.NewWorld(s, 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	model := gpu.TeslaC1060()
	model.MemBytes = 64 << 20
	dev, err := gpu.NewDevice(s, gpu.Config{Name: "ac0", Model: model, Execute: exec})
	if err != nil {
		t.Fatal(err)
	}
	gb := &goldenBed{sim: s, world: w, dev: dev, d: NewDaemon(w.Comm(1), dev, cfg)}
	s.Spawn("daemon0", gb.d.Run)
	client, err := NewClient(w.Comm(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	gb.a = client.Attach(1)
	h := fnv.New64a()
	// The filter only observes: a zero verdict delivers the message as if
	// no filter were installed.
	w.SetLinkFilter(func(src, dst int, tag minimpi.Tag, size int) minimpi.LinkVerdict {
		fmt.Fprintf(h, "%d %d>%d %d %d\n", s.Now(), src, dst, tag, size)
		gb.got.wireMsgs++
		gb.got.wireHash = h.Sum64()
		if src == 1 && tag >= tagRespBase && tag < tagDataBase {
			gb.got.daemon = append(gb.got.daemon, s.Now())
		}
		return minimpi.LinkVerdict{}
	})
	return gb
}

// run executes fn as the front-end process, shuts the daemon down if it
// lives, runs the simulation dry and returns the record.
func (gb *goldenBed) run(t *testing.T, fn func(p *sim.Proc)) copySchedule {
	t.Helper()
	gb.sim.Spawn("cn", func(p *sim.Proc) {
		fn(p)
		if !gb.d.Alive() {
			return
		}
		if err := gb.a.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := gb.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := gb.d.Stats()
	gb.got.blocksIn, gb.got.blocksOut, gb.got.stagingPeak = st.BlocksIn, st.BlocksOut, st.StagingPeak
	gb.got.gpu = gb.dev.Stats()
	gb.got.end = gb.sim.Now()
	return gb.got
}

func (gb *goldenBed) alloc(p *sim.Proc, n int) gpu.Ptr {
	ptr, err := gb.a.MemAlloc(p, n)
	if err != nil {
		panic(err)
	}
	return ptr
}

// note records a copy that completed just now with err.
func (gb *goldenBed) note(p *sim.Proc, err error) {
	gb.got.client = append(gb.got.client, p.Now())
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	gb.got.errs = append(gb.got.errs, msg)
}

// noteAll records concurrent copies, each at the instant it completed.
// The stamping callbacks are the test's own events: they run after the
// completion and schedule nothing, so they move no pipeline event.
func (gb *goldenBed) noteAll(p *sim.Proc, pds []*Pending) {
	at := make([]sim.Time, len(pds))
	for i, pd := range pds {
		pd.done.OnTrigger(func() { at[i] = gb.sim.Now() })
	}
	for i, pd := range pds {
		err := pd.Wait(p)
		p.Wait(0) // let the stamp of a copy that completed this instant run
		gb.got.client = append(gb.got.client, at[i])
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		gb.got.errs = append(gb.got.errs, msg)
	}
}

func (gb *goldenBed) rawSend(reqID uint64, q *request) {
	q.reqID = reqID
	gb.world.Comm(0).Isend(1, TagRequest, encodeRequest(q))
}

// rawErr decodes a raw response into the error it carries.
func rawErr(data []byte, _ minimpi.Status) error {
	rsp, err := decodeResponse(data)
	if err != nil {
		return err
	}
	return rsp.err()
}
