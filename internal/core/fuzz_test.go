package core

// Fuzz targets for the middleware's wire decoders: whatever arrives on
// the request tag must decode without panicking, and anything that
// decodes must survive a canonical re-encode round trip. These are the
// surfaces a misbehaving (or fault-injected) peer can reach directly.

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
	"dynacc/internal/wire"
)

// requestFrames is the one table of the request wire format: every op with
// the full frame it encodes to. The first 26 bytes are the fixed header —
// op, reqID, stream, session at offset 10, fence at offset 18 — and the
// rest is the op's body. The golden, malformed-frame and round-trip tests
// and FuzzDecodeRequest's seeds all read it.
var requestFrames = []struct {
	name string
	q    *request
	hex  string
}{
	{"alloc", &request{op: OpMemAlloc, reqID: 1, size: 4096},
		"0101000000000000000000000000000000000000000000000000" +
			"0010000000000000"},
	{"free, tenant", &request{op: OpMemFree, reqID: 2, session: 5, ptr: 0x1000},
		"0202000000000000000005000000000000000000000000000000" +
			"0010000000000000"},
	{"h2d, strided", &request{op: OpMemcpyH2D, reqID: 3, stream: 1, ptr: 0x1000, off: 64, size: 1 << 20,
		cols: 4, pitch: 1 << 18, block: 128 << 10, depth: 2},
		"0303000000000000000100000000000000000000000000000000" +
			"0010000000000000400000000000000000001000000000000400000000000000000004000000000000000200000000000200000000000000"},
	{"d2h, tenant under a lease", &request{op: OpMemcpyD2H, reqID: 4, session: 5, fence: 3, ptr: 0x2000, size: 64 << 10,
		cols: 1, pitch: 64 << 10, block: 128 << 10, depth: 4},
		"0404000000000000000005000000000000000300000000000000" +
			"0020000000000000000000000000000000000100000000000100000000000000000001000000000000000200000000000400000000000000"},
	{"memset", &request{op: OpMemset, reqID: 5, ptr: 0x1000, off: 16, size: 256, value: 0xCD},
		"0a05000000000000000000000000000000000000000000000000" +
			"001000000000000010000000000000000001000000000000cd"},
	{"kernel", &request{op: OpKernelRun, reqID: 6, stream: 2, kernel: "vadd", launch: gpu.Launch{
		Grid: gpu.Dim3{X: 16, Y: 1, Z: 1}, Block: gpu.Dim3{X: 256, Y: 1, Z: 1},
		Args: []gpu.Value{gpu.PtrArg(0x1000), gpu.IntArg(42), gpu.FloatArg(1.5)},
	}},
		"0506000000000000000200000000000000000000000000000000" +
			"04000000766164641000000000000000010000000000000001000000000000000001000000000000010000000000000001000000000000000300000000000000010010000000000000022a0000000000000003000000000000f83f"},
	{"sync, tenant under a lease", &request{op: OpSync, reqID: 7, session: 5, fence: 3},
		"0607000000000000000005000000000000000300000000000000"},
	{"info", &request{op: OpDeviceInfo, reqID: 8},
		"0708000000000000000000000000000000000000000000000000"},
	{"d2d send", &request{op: OpD2DSend, reqID: 9, ptr: 0x1000, size: 1 << 16, cols: 2, pitch: 1 << 15,
		block: 1 << 14, depth: 2, peer: 3, xferID: 99},
		"0809000000000000000000000000000000000000000000000000" +
			"030000000000000063000000000000000010000000000000000000000000000000000100000000000200000000000000008000000000000000400000000000000200000000000000"},
	{"d2d recv", &request{op: OpD2DRecv, reqID: 10, ptr: 0x2000, size: 1 << 16, cols: 1, pitch: 1 << 16,
		block: 1 << 14, depth: 2, peer: 2, xferID: 99},
		"090a000000000000000000000000000000000000000000000000" +
			"020000000000000063000000000000000020000000000000000000000000000000000100000000000100000000000000000001000000000000400000000000000200000000000000"},
	{"reset under a lease", &request{op: OpReset, reqID: 11, fence: 2},
		"0b0b000000000000000000000000000000000200000000000000"},
	{"shutdown", &request{op: OpShutdown, reqID: 12},
		"0c0c000000000000000000000000000000000000000000000000"},
	{"batch", &request{op: OpBatch, reqID: 13, stream: 1, session: 5, batch: []*request{
		{op: OpWriteInline, reqID: 13, stream: 1, ptr: 0x1000, off: 8, size: 4, cols: 2, pitch: 16, inline: []byte{1, 2, 3, 4}},
		{op: OpMemset, reqID: 13, stream: 1, ptr: 0x1000, size: 8, value: 1},
		{op: OpMemFree, reqID: 13, stream: 1, ptr: 0x1000},
	}},
		"0d0d000000000000000105000000000000000000000000000000" +
			"030000000e0010000000000000080000000000000004000000000000000200000000000000100000000000000004000000010203040a00100000000000000000000000000000080000000000000001020010000000000000"},
	{"inline write", &request{op: OpWriteInline, reqID: 14, ptr: 0x1000, size: 2, inline: []byte{7, 8}},
		"0e0e000000000000000000000000000000000000000000000000" +
			"00100000000000000000000000000000020000000000000000000000000000000000000000000000020000000708"},
	{"session open", &request{op: OpSessionOpen, reqID: 15, session: 5, fence: 3, quota: 1 << 30},
		"0f0f000000000000000005000000000000000300000000000000" +
			"0000004000000000"},
	{"session close", &request{op: OpSessionClose, reqID: 16, session: 5},
		"1010000000000000000005000000000000000000000000000000"},
	{"session reap", &request{op: OpSessionReap, reqID: 17, fence: 7, peer: 3},
		"1111000000000000000000000000000000000700000000000000" +
			"0300000000000000"},
	{"device-local copy", &request{op: OpMemcpyD2D, reqID: 18, ptr: 0x1000, off: 8, ptr2: 0x2000, off2: 16, size: 512},
		"1412000000000000000000000000000000000000000000000000" +
			"00100000000000000800000000000000002000000000000010000000000000000002000000000000"},
}

// requestCorpus is FuzzDecodeRequest's seed corpus: every frame of the
// table, and garbage.
func requestCorpus(tb testing.TB) [][]byte {
	var corpus [][]byte
	for _, tc := range requestFrames {
		corpus = append(corpus, mustHex(tb, tc.hex))
	}
	return append(corpus, []byte{}, []byte{0xFF},
		mustHex(tb, requestFrames[0].hex)[:requestHeaderSize+1], // whole header, truncated size
		// Decodes, and used to pass validate(): 2^40 one-byte blocks.
		encodeRequest(&request{op: OpMemcpyD2H, reqID: 1, size: 1 << 40, cols: 1, block: 1, depth: 1}))
}

func FuzzDecodeRequest(f *testing.F) {
	for _, data := range requestCorpus(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := decodeRequest(data)
		if err != nil {
			return // rejected garbage is fine; panics are not
		}
		// Everything that decodes has passed validate(); it must also
		// re-encode into a canonical form that decodes to the same request.
		enc := encodeRequest(q)
		q2, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(encodeRequest(q2), enc) {
			t.Fatalf("encoding is not canonical:\n first %x\nsecond %x", enc, encodeRequest(q2))
		}
	})
}

// The codec's fresh-record forms: the daemon decodes into recycled records
// and both ends encode into scratch writers.
func encodeRequest(q *request) []byte { return encodeRequestTo(wire.NewWriter(64), q) }

func encodeResponse(rsp *response) []byte { return encodeResponseTo(wire.NewWriter(32), rsp) }

// decodeRequest returns nil for a cut header (see request.decode).
func decodeRequest(data []byte) (*request, error) {
	q := new(request)
	err := q.decode(data, gpu.NewRegistry())
	if len(data) < requestHeaderSize {
		q = nil
	}
	return q, err
}

func decodeResponse(data []byte) (*response, error) {
	rsp := new(response)
	if err := rsp.decode(data); err != nil {
		return nil, err
	}
	return rsp, nil
}

func mustHex(tb testing.TB, s string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func FuzzDecodeResponse(f *testing.F) {
	seeds := []*response{
		{reqID: 1, status: statusOK},
		{reqID: 2, status: statusOK, ptr: 0x4000},
		{reqID: 3, status: statusError, errmsg: "gpu: out of device memory"},
		{reqID: 4, status: statusOK, payload: []byte{1, 2, 3, 4}},
	}
	for _, rsp := range seeds {
		f.Add(encodeResponse(rsp))
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		rsp, err := decodeResponse(data)
		if err != nil {
			return
		}
		enc := encodeResponse(rsp)
		rsp2, err := decodeResponse(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(encodeResponse(rsp2), enc) {
			t.Fatalf("encoding is not canonical:\n first %x\nsecond %x", enc, encodeResponse(rsp2))
		}
	})
}

// A session script is a list of 3-byte steps: who and what (actor +
// 3*op), the stream id as it goes on the wire, and an argument (which
// pointer, which size, whom to reap).
const (
	fzOpen = iota
	fzAlloc
	fzCopy
	fzLaunch
	fzFree
	fzSync
	fzReset
	fzClose
	fzReap
	fzOps
)

// Actors. The holder is the session-less exclusive client (rank 0); the
// tenants are ranks 1 and 2, the second with command batching on.
const (
	fzHolder = iota
	fzTenantA
	fzTenantB
	fzActors
)

func fzStep(actor, op int, stream, arg uint8) []byte {
	return []byte{byte(actor + fzActors*op), stream, arg}
}

func fzScript(steps ...[]byte) []byte { return bytes.Join(steps, nil) }

// The seed scripts replay the session tests' call sequences.
func fuzzSeedSessionScripts() [][]byte {
	isolation := fzScript(
		fzStep(fzTenantA, fzOpen, 0, 0), fzStep(fzTenantB, fzOpen, 0, 0),
		fzStep(fzTenantA, fzAlloc, 0, 0), fzStep(fzTenantA, fzCopy, 0, 0),
		fzStep(fzTenantB, fzFree, 0, 0), fzStep(fzTenantB, fzCopy, 0, 0), fzStep(fzTenantB, fzCopy, 0, 1<<6),
		fzStep(fzTenantB, fzLaunch, 0, 0), fzStep(fzTenantA, fzCopy, 0, 1<<6), fzStep(fzTenantA, fzFree, 0, 0),
		fzStep(fzTenantA, fzClose, 0, 0), fzStep(fzTenantB, fzClose, 0, 0))
	fair := fzScript(fzStep(fzTenantA, fzOpen, 0, 0), fzStep(fzTenantB, fzOpen, 0, 0), fzStep(fzTenantA, fzAlloc, 0, 0))
	for _, tenant := range []int{fzTenantA, fzTenantB} {
		for i := 0; i < 8; i++ {
			fair = append(fair, fzStep(tenant, fzLaunch, 1, 0)...)
		}
	}
	fair = append(fair, fzScript(fzStep(fzTenantA, fzClose, 0, 0), fzStep(fzTenantB, fzClose, 0, 0))...)
	reap := fzScript(
		fzStep(fzTenantA, fzOpen, 0, 0), fzStep(fzTenantA, fzAlloc, 0, 0),
		fzStep(fzTenantB, fzOpen, 0, 0), fzStep(fzTenantB, fzAlloc, 0, 0),
		fzStep(fzHolder, fzReap, 0, 3), fzStep(fzHolder, fzReap, 0, fzTenantA),
		fzStep(fzTenantA, fzAlloc, 0, 0), fzStep(fzHolder, fzReset, 0, 0))
	return [][]byte{isolation, fair, reap}
}

// FuzzDaemonSessions drives one daemon with a script of session
// operations from two tenants and the session-less holder on arbitrary
// stream ids. Whatever the interleaving — work behind a close, a reap
// racing a tenant, a stream id past the cap, a foreign or stale pointer —
// every call must come back with a result or an error, and once the
// tenants are closed the daemon must hold no session, no device memory
// and no process.
func FuzzDaemonSessions(f *testing.F) {
	for _, script := range fuzzSeedSessionScripts() {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		const maxSteps = 96 // bounds one execution, not what a script may say
		if len(script) > 3*maxSteps {
			script = script[:3*maxSteps]
		}
		s := sim.New()
		w, err := minimpi.NewWorld(s, fzActors+1, fastNet())
		if err != nil {
			t.Fatal(err)
		}
		reg := gpu.NewRegistry()
		reg.Register(gpu.FuncKernel{
			KernelName: "touch",
			CostFn:     func(gpu.Launch, gpu.Model) sim.Duration { return 10 * sim.Microsecond },
		})
		model := gpu.TeslaC1060()
		model.MemBytes = 64 << 20
		dev, err := gpu.NewDevice(s, gpu.Config{Name: "ac0", Model: model, Registry: reg, Execute: true})
		if err != nil {
			t.Fatal(err)
		}
		const daemonRank = fzActors
		d := NewDaemon(w.Comm(daemonRank), dev, DefaultDaemonConfig())
		s.Spawn("daemon0", d.Run)

		// A copy the daemon refuses outright (no such session, stream cap)
		// is never drained, so the front-ends need a timeout to get their
		// call back; nothing else in a fault-free run may hit it.
		var handles [fzActors]*Accel
		for i := range handles {
			opts := DefaultOptions()
			if i == fzTenantB {
				opts = BatchedOptions()
			}
			opts.Timeout = 5 * sim.Millisecond
			c, err := NewClient(w.Comm(i), opts)
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = c.Attach(daemonRank) // a tenant's is replaced at its first open
		}
		type alloc struct {
			owner int
			ptr   gpu.Ptr
		}
		s.Spawn("script", func(p *sim.Proc) {
			var pool []alloc // every pointer ever handed out, stale ones included
			var pends []*Pending
			var opened []*Accel // every session handle, superseded ones included
			settle := func(step, op int, err error) {
				if errors.Is(err, ErrTimeout) && op != fzCopy {
					t.Errorf("step %d: op %d got no answer: %v", step, op, err)
				}
			}
			for i := 0; i+2 < len(script); i += 3 {
				actor, op := int(script[i])%fzActors, int(script[i])/fzActors%fzOps
				stream, arg := script[i+1], int(script[i+2])
				h := handles[actor]
				if op != fzOpen && actor != fzHolder && h.Session() == 0 {
					continue // tenant not opened yet
				}
				var ptr gpu.Ptr
				if len(pool) > 0 {
					ptr = pool[arg%len(pool)].ptr
				}
				var err error
				switch op {
				case fzOpen:
					if actor != fzHolder {
						fresh, err := attachSession(p, h.Client(), daemonRank)
						if err != nil {
							t.Errorf("step %d: open: %v", i/3, err)
							continue
						}
						handles[actor] = fresh
						opened = append(opened, fresh)
					}
				case fzAlloc:
					if ptr, err = h.MemAlloc(p, 16<<10); err == nil {
						pool = append(pool, alloc{actor, ptr})
					}
				case fzCopy:
					n := 256 // eager
					if arg&(1<<7) != 0 {
						n = 8 << 10 // rendezvous, pipelined
					}
					if arg&(1<<6) != 0 {
						pends = append(pends, h.MemcpyD2HAsync(make([]byte, n), ptr, 0, n, stream))
					} else {
						pends = append(pends, h.MemcpyH2DAsync(ptr, 0, make([]byte, n), n, stream))
					}
				case fzLaunch:
					k := h.KernelCreate("touch").SetArgs(gpu.PtrArg(ptr))
					pends = append(pends, k.RunAsync(gpu.Dim3{X: 1}, gpu.Dim3{X: 1}, stream))
				case fzFree:
					err = h.MemFree(p, ptr)
				case fzSync:
					err = h.Sync(p)
				case fzReset:
					err = h.Reset(p)
				case fzClose:
					err = h.CloseSession(p)
				case fzReap:
					err = handles[fzHolder].ReapSessions(p, arg%(fzActors+1))
				}
				settle(i/3, op, err)
			}
			for _, pd := range pends {
				pd.Wait(p) // must return; a lost command would deadlock the run
			}
			for _, h := range opened {
				settle(-1, fzClose, h.CloseSession(p))
			}
			for _, a := range pool {
				if a.owner == fzHolder {
					_ = handles[fzHolder].MemFree(p, a.ptr) // may be long gone
				}
			}
			if n := d.OpenSessions(); n != 0 {
				t.Errorf("%d sessions open after every tenant closed", n)
			}
			if used := dev.MemUsed(); used != 0 {
				t.Errorf("%d device bytes leaked", used)
			}
			if err := handles[fzHolder].Shutdown(p); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
		// Run fails on a deadlock, i.e. on any process still parked once the
		// event queue drains: a lost command or a leaked stream worker.
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
