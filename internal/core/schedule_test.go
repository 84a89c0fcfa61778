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
// pipeline stage's events moves at least one literal below. The last rows
// do the same for the front-end's request engine on header-only calls.
// The timestamps were moved once since, with the fixed 26-byte request
// header: 16 more bytes a request are 5.69 ns at 2680 MiB/s (5 to 7 after
// each message's truncation), so every instant sits that much later per
// request sent before it, and nothing else changed. The end instants moved
// once more when deadlines became cancellable: a run that used to end at a
// deadline its wait had beaten ends at its last live event.
func TestGoldenCopySchedule(t *testing.T) {
	const k, m = netmodel.KiB, netmodel.MiB
	pipe128 := Options{H2D: PaperPipeline(128 * k), D2H: PaperPipeline(128 * k)}
	timeout := DefaultDaemonConfig()
	timeout.PayloadTimeout = 5 * sim.Millisecond
	patient := pipe128
	patient.Timeout, patient.Retries = 20*sim.Millisecond, 1
	retrying := DefaultOptions()
	retrying.Timeout, retrying.Retries = 5*sim.Millisecond, 2

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
		two  bool // a second daemon, rank 2
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
				client:   []sim.Time{152590, 294866, 532718, 775376, 2403176, 4051182, 4501183, 4948512},
				daemon:   []sim.Time{12162, 150732, 291858, 530860, 772368, 2401318, 4048174, 4499325, 4945504, 4950671},
				errs:     []string{"", "", "", "", "", "", "", ""},
				blocksIn: 47, blocksOut: 47, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 6033409, BytesOut: 6033409, Launches: 0, Busy: 2857933},
				wireMsgs: 114, wireHash: 0xa0f35cab7accf45, end: 4955379,
			},
		},
		{
			// The paper's defaults: 128K blocks below 9 MiB up, 512K above;
			// 128K blocks down.
			name: "adaptive", opts: DefaultOptions(), cfg: DefaultDaemonConfig(),
			run: roundTrips(1*m, 16*m),
			want: copySchedule{
				client:   []sim.Time{450436, 893858, 7064394, 13530736},
				daemon:   []sim.Time{12162, 448578, 890850, 7062536, 13527728, 13532895},
				errs:     []string{"", "", "", ""},
				blocksIn: 40, blocksOut: 136, stagingPeak: 2097152,
				gpu:      gpu.Stats{BytesIn: 17825792, BytesOut: 17825792, Launches: 0, Busy: 7528320},
				wireMsgs: 188, wireHash: 0xc71b7d1d9f447559, end: 13537603,
			},
		},
		{
			// Every socket-mode daemon runs with a payload deadline: each
			// block wait that can time out arms a timer, which it cancels.
			name: "pipeline 128K with deadline", opts: pipe128, cfg: timeout,
			run: roundTrips(256*k, 4*m),
			want: copySchedule{
				client:   []sim.Time{152590, 294866, 1922666, 3570672},
				daemon:   []sim.Time{12162, 150732, 291858, 1920808, 3567664, 3572831},
				errs:     []string{"", "", "", ""},
				blocksIn: 34, blocksOut: 34, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 4456448, BytesOut: 4456448, Launches: 0, Busy: 2098072},
				wireMsgs: 80, wireHash: 0xc21f6045c174c390, end: 3577539,
			},
		},
		{
			// Execute mode, a window whose blocks cut through columns.
			name: "strided window", exec: true, opts: Options{H2D: PaperPipeline(24 * k), D2H: PaperPipeline(40 * k)}, cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				const colBytes, cols, pitch, off = 10000, 37, 12288, 512
				ptr := gb.alloc(p, off+cols*pitch)
				src := pattern(colBytes * cols)
				gb.note(p, gb.a.MemcpyH2D2DAsync(ptr, off, colBytes, cols, pitch, src, 0).Wait(p))
				got := make([]byte, len(src))
				gb.note(p, gb.a.MemcpyD2H2DAsync(got, ptr, off, colBytes, cols, pitch, 0).Wait(p))
				if !bytes.Equal(got, src) {
					t.Error("strided window: downloaded bytes differ from the uploaded ones")
				}
			},
			want: copySchedule{
				client:   []sim.Time{242545, 435367},
				daemon:   []sim.Time{12162, 240687, 432359, 437526},
				errs:     []string{"", ""},
				blocksIn: 16, blocksOut: 10, stagingPeak: 163840,
				gpu:      gpu.Stats{BytesIn: 370000, BytesOut: 370000, Launches: 0, Busy: 357381},
				wireMsgs: 34, wireHash: 0x41e0aa4fd4b42fdb, end: 442234,
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
				client:   []sim.Time{2472659, 1617860, 1788742},
				daemon:   []sim.Time{12162, 26182, 40202, 1614852, 1786884, 2470801, 2474818},
				errs:     []string{"", "", ""},
				blocksIn: 49, blocksOut: 24, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 6291556, BytesOut: 3145728, Launches: 0, Busy: 2226832},
				wireMsgs: 87, wireHash: 0xc048dbef9a0cdfb7, end: 2479526,
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
				client:   []sim.Time{450459, 489519, 925935},
				daemon:   []sim.Time{12162, 448578, 486488, 924077, 928094},
				errs:     []string{"core: accelerator error: gpu: access [524288,1572864) beyond allocation of 1048576 bytes", "core: accelerator error: gpu: access [524288,1572864) beyond allocation of 1048576 bytes", ""},
				blocksIn: 16, blocksOut: 8, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 2097152, BytesOut: 0, Launches: 0, Busy: 491216},
				wireMsgs: 34, wireHash: 0xeeab5a26dc5f07a9, end: 932802,
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
				client:   []sim.Time{1611130, 2023556, 3671576},
				daemon:   []sim.Time{12162, 1609261, 2020537, 3668554, 3673735},
				errs:     []string{"core: accelerator error: gpu: ac0: device failed: golden", "core: accelerator error: gpu: ac0: device failed: golden", "core: accelerator error: gpu: ac0: device failed: golden again"},
				blocksIn: 32, blocksOut: 40, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 1441792, BytesOut: 2228224, Launches: 0, Busy: 864830},
				wireMsgs: 82, wireHash: 0xbd2a51429158cffe, end: 3678443,
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
				client:   []sim.Time{20121905, 30226977, 30564111},
				daemon:   []sim.Time{12162, 20120031, 30225105, 30562253, 30566270},
				errs:     []string{"core: accelerator error: core: payload block 3/6 from rank 0 timed out", "core: accelerator error: core: payload block to rank 0 timed out", ""},
				blocksIn: 8, blocksOut: 6, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 1048576, BytesOut: 786432, Launches: 0, Busy: 431650},
				wireMsgs: 24, wireHash: 0xd501c7b738c5b5f8, end: 30570978,
			},
		},
		{
			// A front-end with a request timeout: every block wait it makes
			// arms and cancels a timer too.
			name: "front-end deadline", opts: patient, cfg: DefaultDaemonConfig(),
			run: roundTrips(256*k, 4*m),
			want: copySchedule{
				client:   []sim.Time{152590, 294866, 1922666, 3570672},
				daemon:   []sim.Time{12162, 150732, 291858, 1920808, 3567664, 3572831},
				errs:     []string{"", "", "", ""},
				blocksIn: 34, blocksOut: 34, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 4456448, BytesOut: 4456448, Launches: 0, Busy: 2098072},
				wireMsgs: 80, wireHash: 0xc21f6045c174c390, end: 3577539,
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
				client:   []sim.Time{20673824, 20645123},
				daemon:   []sim.Time{12162, 26182},
				errs:     []string{"core: payload transfer to accelerator rank 1 timed out after 1 attempt(s)", "core: payload transfer to accelerator rank 1 timed out after 1 attempt(s)"},
				blocksIn: 11, blocksOut: 10, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 1048576, BytesOut: 1441792, Launches: 0, Busy: 586685},
				wireMsgs: 49, wireHash: 0x243041db0d4731ad, end: 20673824,
			},
		},
		// Header-only calls, flushes, resends and stale replies: the
		// front-end's request engine. Recorded while a synchronous call was a
		// loop in the calling process (call.wait) and an asynchronous one a
		// closure engine (roundTrip).
		{
			name: "synchronous calls", opts: DefaultOptions(), cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				a, err := gb.a.MemAlloc(p, 1*m)
				gb.note(p, err)
				b, err := gb.a.MemAlloc(p, 2*m)
				gb.note(p, err)
				gb.note(p, gb.a.c.CopyD2D(p, gb.a, a, 0, 64*k, 1, 64*k, gb.a, b, 4*k, 0, 0))
				gb.note(p, gb.a.Sync(p))
				_, err = gb.a.Info(p)
				gb.note(p, err)
				gb.note(p, gb.a.MemFree(p, a))
				gb.note(p, gb.a.MemFree(p, a))
				gb.note(p, gb.a.MemFree(p, b))
			},
			want: copySchedule{
				client:   []sim.Time{14020, 28040, 33356, 37373, 41405, 55425, 69460, 83480},
				daemon:   []sim.Time{12162, 26182, 31498, 35515, 39532, 53567, 67587, 81622, 85639},
				errs:     []string{"", "", "", "", "", "", "core: accelerator error: gpu: free of invalid device pointer 0x100", ""},
				blocksIn: 0, blocksOut: 0, stagingPeak: 0,
				gpu:      gpu.Stats{BytesIn: 0, BytesOut: 0, Launches: 0, Busy: 0},
				wireMsgs: 18, wireHash: 0x8c2e3d39dcae2eaa, end: 90347,
			},
		},
		{
			// Launches and memsets on two streams, awaited out of order.
			name: "asynchronous calls", opts: patient, cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				gb.dev.Registry().Register(gpu.FuncKernel{
					KernelName: "slow",
					CostFn:     func(gpu.Launch, gpu.Model) sim.Duration { return 300 * sim.Microsecond },
				})
				ptr := gb.alloc(p, 1*m)
				one := gpu.Dim3{X: 1}
				pds := []*Pending{
					gb.a.KernelCreate("slow").RunAsync(one, one, 1),
					gb.a.MemsetAsync(ptr, 0, 512*k, 1, 2),
					gb.a.KernelCreate("bogus").RunAsync(one, one, 2),
					gb.a.MemsetAsync(ptr, 512*k, 512*k, 2, 1),
					gb.a.KernelCreate("slow").SetArgs(gpu.PtrArg(ptr), gpu.IntArg(7)).RunAsync(one, one, 2),
					gb.a.MemsetAsync(ptr, 1*m, 1, 3, 1),
				}
				gb.noteAll(p, []*Pending{pds[4], pds[1], pds[5], pds[0], pds[3], pds[2]})
			},
			want: copySchedule{
				client:   []sim.Time{632060, 33218, 340231, 325060, 337200, 36236},
				daemon:   []sim.Time{12162, 31360, 31360, 323202, 335342, 335342, 630202, 634219},
				errs:     []string{"", "", "core: accelerator error: gpu: access [1048576,1048577) beyond allocation of 1048576 bytes", "", "", "core: accelerator error: gpu: unknown kernel \"bogus\""},
				blocksIn: 0, blocksOut: 0, stagingPeak: 0,
				gpu:      gpu.Stats{BytesIn: 0, BytesOut: 0, Launches: 2, Busy: 614000},
				wireMsgs: 16, wireHash: 0x461d4aed414882d1, end: 638927,
			},
		},
		{
			// A three-command buffer travels as one opBatch, a single command
			// ships plain, an inline write makes a batch of one.
			name: "batch flushes", opts: BatchedOptions(), cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				ptr := gb.alloc(p, 1*m)
				three := []*Pending{
					gb.a.MemsetAsync(ptr, 0, 256*k, 1, 1),
					gb.a.MemsetAsync(ptr, 2*m, 1, 2, 1),
					gb.a.MemsetAsync(ptr, 256*k, 256*k, 3, 1),
				}
				single := gb.a.MemsetAsync(ptr, 0, 128*k, 4, 2)
				gb.noteAll(p, append(three, gb.a.Flush(1), gb.a.Flush(2), single))
				gb.note(p, gb.a.MemcpyH2D(p, ptr, 0, nil, 2*k))
				gb.note(p, gb.a.MemFree(p, ptr))
			},
			want: copySchedule{
				client:   []sim.Time{27663, 27663, 27663, 27663, 30671, 30671, 50846, 64866},
				daemon:   []sim.Time{12162, 25778, 27511, 48986, 63008, 67025},
				errs:     []string{"", "core: batch command 1 (op 10): core: accelerator error: gpu: access [2097152,2097153) beyond allocation of 1048576 bytes", "core: batch command 2 (op 10): core: command skipped after earlier batch error", "core: batch command 1 (op 10): core: accelerator error: gpu: access [2097152,2097153) beyond allocation of 1048576 bytes", "", "", "", ""},
				blocksIn: 0, blocksOut: 0, stagingPeak: 0,
				gpu:      gpu.Stats{BytesIn: 2048, BytesOut: 0, Launches: 0, Busy: 11410},
				wireMsgs: 12, wireHash: 0xd81caf22b7fcdf20, end: 71733,
			},
		},
		{
			// Both daemons answer when the stream between them is through;
			// the front-end waits for the receiver, then for the sender.
			name: "direct copy", two: true, opts: patient, cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				src := gb.alloc(p, 4*m)
				dst, err := gb.a2.MemAlloc(p, 4*m)
				gb.note(p, err)
				c := gb.a.Client()
				gb.note(p, c.CopyD2D(p, gb.a, src, 512, 100*k, 30, 128*k, gb.a2, dst, 0, 1, 2))
				gb.note(p, c.CopyD2D(p, gb.a2, dst, 0, 4*m, 1, 4*m, gb.a, src, 0, 0, 0))
				gb.note(p, c.CopyD2D(p, gb.a, src, 2*m, 4*m, 1, 4*m, gb.a2, dst, 0, 0, 0))
			},
			want: copySchedule{
				client:   []sim.Time{28040, 1267461, 2935157, 3240233},
				daemon:   []sim.Time{12162, 26182, 1235663, 1265603, 2898448, 2933299, 3070225, 3238375, 3242392, 3246409},
				errs:     []string{"", "", "", "core: accelerator error: gpu: access [2097152,6291456) beyond allocation of 4194304 bytes"},
				blocksIn: 32, blocksOut: 56, stagingPeak: 524288,
				gpu:      gpu.Stats{BytesIn: 4194304, BytesOut: 3072000, Launches: 0, Busy: 1714221},
				wireMsgs: 108, wireHash: 0xfe9ba7ef7fa6967f, end: 3251117,
			},
		},
		{
			// One response is lost under a synchronous call and one under an
			// asynchronous one: each is resent once, at its deadline.
			name: "dropped response", opts: retrying, cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				ptr := gb.alloc(p, 1*m)
				gb.dropResponse(0)
				gb.note(p, gb.a.Sync(p))
				gb.dropResponse(0)
				other := gb.a.MemsetAsync(ptr, 0, 1*k, 5, 2)
				gb.noteAll(p, []*Pending{gb.a.MemsetAsync(ptr, 0, 1*m, 6, 1), other})
				gb.dropResponse(0)
				_, err := gb.a.MemAlloc(p, 1*k)
				gb.note(p, err)
			},
			want: copySchedule{
				client:   []sim.Time{5018037, 5042361, 10022063, 15026083},
				daemon:   []sim.Time{12162, 16179, 5016179, 5027215, 5040503, 10020205, 10034225, 15024225, 15028242},
				errs:     []string{"", "", "", ""},
				blocksIn: 0, blocksOut: 0, stagingPeak: 0,
				gpu:      gpu.Stats{BytesIn: 0, BytesOut: 0, Launches: 0, Busy: 0},
				wireMsgs: 18, wireHash: 0x27a7a7e55e68850a, end: 15032950,
			},
		},
		{
			// Nobody answers: three sends each, then the typed error.
			name: "daemon dead", opts: retrying, cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				ptr := gb.alloc(p, 1*m)
				gb.d.Kill()
				pd := gb.a.MemsetAsync(ptr, 0, 1*k, 7, 1)
				gb.note(p, gb.a.Sync(p))
				gb.noteAll(p, []*Pending{pd, gb.a.KernelCreate("k").RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 1}, 0)})
				_, err := gb.a.Info(p)
				gb.note(p, err)
			},
			want: copySchedule{
				client:   []sim.Time{15014020, 15014020, 30014020, 45014020},
				daemon:   []sim.Time{12162},
				errs:     []string{"core: op 6 to accelerator rank 1 timed out after 3 attempt(s)", "core: op 10 to accelerator rank 1 timed out after 3 attempt(s)", "core: op 5 to accelerator rank 1 timed out after 3 attempt(s)", "core: op 7 to accelerator rank 1 timed out after 3 attempt(s)"},
				blocksIn: 0, blocksOut: 0, stagingPeak: 0,
				gpu:      gpu.Stats{BytesIn: 0, BytesOut: 0, Launches: 0, Busy: 0},
				wireMsgs: 14, wireHash: 0xc1c18f376f8ee805, end: 45014020,
			},
		},
		{
			// A reply to somebody else's request lands on an asynchronous
			// call's tag (the tag window wrapped): it is discarded and the
			// receive re-posted; the second time the true reply is lost too.
			name: "stale reply, asynchronous", opts: retrying, cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				ptr := gb.alloc(p, 1*m)
				gb.staleNext()
				gb.noteAll(p, []*Pending{gb.a.MemsetAsync(ptr, 0, 1*k, 8, 0)})
				gb.staleNext()
				gb.dropResponse(1)
				gb.noteAll(p, []*Pending{gb.a.MemsetAsync(ptr, 0, 1*k, 9, 0)})
			},
			want: copySchedule{
				client:   []sim.Time{28065, 5032091},
				daemon:   []sim.Time{12162, 16179, 26207, 30224, 40252, 5030233, 5034250},
				errs:     []string{"", ""},
				blocksIn: 0, blocksOut: 0, stagingPeak: 0,
				gpu:      gpu.Stats{BytesIn: 0, BytesOut: 0, Launches: 0, Busy: 0},
				wireMsgs: 14, wireHash: 0xe569fe7c70e38b7c, end: 5038958,
			},
		},
		{
			// The same under synchronous calls. The one row that moved when the
			// engines merged: call.wait restarted the deadline at every stale
			// reply, so the resend left 4011 ns later than here (completion
			// 5015041, hash 0x31654600b3c15f05, end 10015041); now the deadline
			// belongs to the send, as it always did for asynchronous calls.
			name: "stale reply, synchronous", opts: retrying, cfg: DefaultDaemonConfig(),
			run: func(p *sim.Proc, gb *goldenBed) {
				gb.staleNext()
				gb.note(p, gb.a.Sync(p))
				gb.staleNext()
				gb.dropResponse(1)
				gb.note(p, gb.a.Sync(p))
			},
			want: copySchedule{
				client:   []sim.Time{7026, 5011043},
				daemon:   []sim.Time{2159, 5168, 9185, 12194, 5009185, 5013202},
				errs:     []string{"", ""},
				blocksIn: 0, blocksOut: 0, stagingPeak: 0,
				gpu:      gpu.Stats{BytesIn: 0, BytesOut: 0, Launches: 0, Busy: 0},
				wireMsgs: 12, wireHash: 0xf11c6106bf8fcc62, end: 5017910,
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			gb := newGoldenBed(t, sc.exec, sc.two, sc.opts, sc.cfg)
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
// InfiniBand — two daemons when a scenario asks for the second (rank 2) —
// with every message entering the wire folded into the record.
type goldenBed struct {
	sim   *sim.Simulation
	world *minimpi.World
	a, a2 *Accel
	d, d2 *Daemon
	dev   *gpu.Device
	got   copySchedule
	// dropping loses one daemon response on the wire, after letting
	// dropSkip others through; see dropResponse.
	dropping bool
	dropSkip int
}

func newGoldenBed(t *testing.T, exec, two bool, opts Options, cfg DaemonConfig) *goldenBed {
	t.Helper()
	s := sim.New()
	ranks := 2
	if two {
		ranks = 3
	}
	w, err := minimpi.NewWorld(s, ranks, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	model := gpu.TeslaC1060()
	model.MemBytes = 64 << 20
	daemon := func(rank int) (*gpu.Device, *Daemon) {
		name := fmt.Sprintf("ac%d", rank-1)
		dev, err := gpu.NewDevice(s, gpu.Config{Name: name, Model: model, Execute: exec})
		if err != nil {
			t.Fatal(err)
		}
		d := NewDaemon(w.Comm(rank), dev, cfg)
		s.Spawn(fmt.Sprintf("daemon%d", rank-1), d.Run)
		return dev, d
	}
	gb := &goldenBed{sim: s, world: w}
	gb.dev, gb.d = daemon(1)
	if two {
		_, gb.d2 = daemon(2)
	}
	client, err := NewClient(w.Comm(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	gb.a = client.Attach(1)
	if two {
		gb.a2 = client.Attach(2)
	}
	h := fnv.New64a()
	// Unless a scenario asked for a drop the filter only observes: a zero
	// verdict delivers the message as if no filter were installed.
	w.SetLinkFilter(func(src, dst int, tag minimpi.Tag, size int) minimpi.LinkVerdict {
		fmt.Fprintf(h, "%d %d>%d %d %d\n", s.Now(), src, dst, tag, size)
		gb.got.wireMsgs++
		gb.got.wireHash = h.Sum64()
		if src != 0 && tag >= tagRespBase && tag < tagDataBase {
			gb.got.daemon = append(gb.got.daemon, s.Now())
			if gb.dropping {
				if gb.dropSkip--; gb.dropSkip < 0 {
					gb.dropping = false
					return minimpi.LinkVerdict{Drop: true}
				}
			}
		}
		return minimpi.LinkVerdict{}
	})
	return gb
}

// dropResponse loses the daemon response after the next skip ones.
func (gb *goldenBed) dropResponse(skip int) { gb.dropping, gb.dropSkip = true, skip }

// staleNext makes the front-end's next request receive a stale reply first:
// a raw request whose ID falls on the same tag of the window travels just
// ahead of it, and the daemon answers that one first.
func (gb *goldenBed) staleNext() {
	gb.rawSend(1<<50|(gb.a.c.nextReq+1)%tagWindow, &request{op: OpSync})
}

// run executes fn as the front-end process, shuts the daemon down if it
// lives, runs the simulation dry and returns the record.
func (gb *goldenBed) run(t *testing.T, fn func(p *sim.Proc)) copySchedule {
	t.Helper()
	gb.sim.Spawn("cn", func(p *sim.Proc) {
		fn(p)
		for i, d := range []*Daemon{gb.d, gb.d2} {
			if d == nil || !d.Alive() {
				continue
			}
			if err := []*Accel{gb.a, gb.a2}[i].Shutdown(p); err != nil {
				t.Errorf("shutdown: %v", err)
			}
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
