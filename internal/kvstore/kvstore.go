// Package kvstore implements the paper's key-value store application
// (§5.7): a CliqueMap-style server with a hash index over in-memory
// objects, serving 95% gets / 5% sets under Zipf(0.75) popularity, with
// zero-copy multi-segment TX for get responses (header descriptor plus an
// external object segment, as DPDK extbuf provides).
//
// Requests arrive as synthetic ingress on the NIC (the paper's remote
// clients); server threads poll RX queues, execute operations against the
// store, and transmit responses. Peak throughput and the thread count
// needed to reach it are the Fig 19 / Table 2 measurements.
package kvstore

import (
	"fmt"
	"math/rand"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/mem"
	"ccnic/internal/sim"
	"ccnic/internal/traffic"
)

// Request/response header sizes (bytes), modeled on CliqueMap RPCs.
const (
	reqHeader  = 64 // get request / set request header
	respHeader = 32 // response header preceding the object payload
)

// The paper's operation mix and server burst.
const (
	getFraction = 0.95 // 95% gets, 5% sets
	zipfS       = 0.75 // key popularity skew
	burst       = 32   // server RX/TX burst
)

// object is one stored value.
type object struct {
	addr mem.Addr
	size int
}

// Store is the hash-indexed object store, shared by all server threads.
type Store struct {
	sys     *coherence.System
	nKeys   int
	buckets mem.Addr // index bucket array, one 64B bucket line per 4 keys
	nBucket int
	objects []object
}

// NewStore builds a store of nKeys objects with sizes following dist, all
// homed on the given socket. Sizes are assigned by golden-ratio-stratified
// quantiles over key rank, so the popular head of a Zipf access pattern
// samples the full size distribution rather than amplifying one unlucky
// draw (production traces correlate sizes smoothly across hot keys).
func NewStore(sys *coherence.System, home, nKeys int, dist *traffic.SizeDist) *Store {
	sp := sys.Space()
	s := &Store{
		sys:     sys,
		nKeys:   nKeys,
		nBucket: nKeys / 4,
	}
	if s.nBucket == 0 {
		s.nBucket = 1
	}
	s.buckets = sp.AllocLines(home, s.nBucket)
	s.objects = make([]object, nKeys)
	const phi = 0.6180339887498949
	for i := range s.objects {
		u := float64(i+1) * phi
		u -= float64(int(u)) // fractional part: low-discrepancy in [0,1)
		size := dist.Quantile(u)
		s.objects[i] = object{addr: sp.Alloc(home, size, 0), size: size}
	}
	return s
}

// NumKeys returns the key count.
func (s *Store) NumKeys() int { return s.nKeys }

// bucketLine returns the index line for a key.
func (s *Store) bucketLine(key int) mem.Addr {
	return s.buckets + mem.Addr((key%s.nBucket)*mem.LineSize)
}

// Get performs an index lookup, charging the index read, and returns the
// object's location for zero-copy transmission.
func (s *Store) Get(p *sim.Proc, a *coherence.Agent, key int) (mem.Addr, int) {
	a.Read(p, s.bucketLine(key), 16) // bucket probe
	o := s.objects[key%s.nKeys]
	return o.addr, o.size
}

// Set performs an index lookup and writes the object's new contents.
func (s *Store) Set(p *sim.Proc, a *coherence.Agent, key int) int {
	a.Read(p, s.bucketLine(key), 16)
	o := s.objects[key%s.nKeys]
	a.StreamWrite(p, o.addr, o.size)
	a.Write(p, s.bucketLine(key), 16) // version/metadata update
	return o.size
}

// Config describes one key-value benchmark run.
type Config struct {
	Sys   *coherence.System
	Dev   device.Device // must implement device.Injector
	Hosts []*coherence.Agent
	Store *Store

	Seed int64

	// RatePerQueue is the offered request rate per server thread
	// (requests/second). Use a rate beyond saturation to measure peak.
	RatePerQueue float64

	Warmup  sim.Time // default 50us
	Measure sim.Time // default 200us

	// StallTimeout is the liveness watchdog on the response TX window:
	// if a server thread makes zero TX progress for this long, Run
	// panics with a *StallError naming the queue instead of silently
	// degrading (the in-flight window equivalent of the kernel's
	// diagnosable deadlock errors). Default 200us; a legitimate
	// fault-free stall is bounded by the device's drain rate and is
	// microseconds at worst.
	StallTimeout sim.Time
}

// StallError reports a server thread whose response TX window made no
// progress for StallTimeout: every TxBurst returned zero while responses
// were pending. It names the queue, how long it was wedged, and what was
// outstanding, so a hang diagnoses like a kernel deadlock error rather
// than reading as low throughput.
type StallError struct {
	Queue   int      // wedged server thread / NIC queue index
	Stalled sim.Time // how long the window made no progress
	Pending int      // responses still awaiting submission
	At      sim.Time // simulation time the watchdog fired
}

func (e *StallError) Error() string {
	return fmt.Sprintf("kvstore: server queue %d TX window stalled for %v with %d responses pending at t=%v",
		e.Queue, e.Stalled, e.Pending, e.At)
}

// Result is the benchmark outcome.
type Result struct {
	OpsPerSec float64
	Gets      int64
	Sets      int64
}

// Mops returns millions of operations per second.
func (r *Result) Mops() float64 { return r.OpsPerSec / 1e6 }

// opGen draws the deterministic (op, key, size) sequence for one queue.
// The ingress generator and the server replay the same sequence, so the
// server knows each arriving request's operation without modeling packet
// contents.
type opGen struct {
	rng  *rand.Rand
	zipf *traffic.Zipf
	st   *Store
}

func newOpGen(seed int64, st *Store) *opGen {
	return &opGen{
		rng:  rand.New(rand.NewSource(seed)),
		zipf: traffic.NewZipf(seed+1, st.NumKeys(), zipfS),
		st:   st,
	}
}

// next returns whether the op is a get, its key, and the request size on
// the wire (sets carry the object payload).
func (g *opGen) next() (get bool, key, reqSize int) {
	get = g.rng.Float64() < getFraction
	key = g.zipf.Next()
	reqSize = reqHeader
	if !get {
		reqSize += g.st.objects[key%g.st.nKeys].size
	}
	return get, key, reqSize
}

// Run executes the key-value workload and reports completed operations.
func Run(cfg Config) Result {
	inj, ok := cfg.Dev.(device.Injector)
	if !ok {
		panic("kvstore: device must support ingress injection")
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 50 * sim.Microsecond
	}
	if cfg.Measure == 0 {
		cfg.Measure = 200 * sim.Microsecond
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 200 * sim.Microsecond
	}
	k := cfg.Sys.Kernel()
	nq := cfg.Dev.NumQueues()
	if len(cfg.Hosts) != nq {
		panic("kvstore: host agent count must match device queues")
	}

	// Wire up deterministic request streams: the device's generator and
	// the server replay identical sequences per queue.
	serverGens := make([]*opGen, nq)
	for i := 0; i < nq; i++ {
		seed := cfg.Seed + int64(i)*7919
		devGen := newOpGen(seed, cfg.Store)
		serverGens[i] = newOpGen(seed, cfg.Store)
		inj.SetIngress(i, cfg.RatePerQueue, func() int {
			_, _, size := devGen.next()
			return size
		})
	}
	cfg.Dev.Start()

	end := k.Now() + cfg.Warmup + cfg.Measure
	warmupEnd := k.Now() + cfg.Warmup
	type counters struct{ gets, sets int64 }
	cs := make([]counters, nq)

	// First watchdog trip wins; procs run serialized under the kernel.
	var stalled *StallError

	// Throughput is what the NIC transmits, not what servers enqueue:
	// ring backlog must not count. Snapshot device TX counters at the
	// warmup boundary and at the end.
	txAtWarmup := make([]int64, nq)
	txAtEnd := make([]int64, nq)
	k.Spawn("kv-accounting", func(p *sim.Proc) {
		p.Sleep(warmupEnd - p.Now())
		for i := 0; i < nq; i++ {
			txAtWarmup[i] = inj.TxCount(i)
		}
		p.Sleep(end - p.Now())
		for i := 0; i < nq; i++ {
			txAtEnd[i] = inj.TxCount(i)
		}
	})

	for i := 0; i < nq; i++ {
		i := i
		q := cfg.Dev.Queue(i)
		a := cfg.Hosts[i]
		gen := serverGens[i]
		c := &cs[i]
		k.Spawn(fmt.Sprintf("kvserver%d", i), func(p *sim.Proc) {
			rx := make([]*bufpool.Buf, burst)
			for p.Now() < end {
				got := q.RxBurst(p, rx)
				if got == 0 {
					p.Sleep(cfg.Sys.Platform().PollGap * 2)
					continue
				}
				// Touch request headers (overlapped across burst).
				a.GatherRead(p, headerLines(rx[:got]))
				resp := make([]*bufpool.Buf, 0, got)
				for j := 0; j < got; j++ {
					get, key, _ := gen.next()
					a.Exec(p, 20*sim.Nanosecond) // RPC parse/dispatch
					if get {
						addr, size := cfg.Store.Get(p, a, key)
						rb := q.Port().Alloc(p, respHeader)
						if rb == nil {
							continue
						}
						rb.Len = respHeader
						// Zero-copy: the object is a second
						// TX segment (DPDK extbuf).
						rb.ExtAddr, rb.ExtLen = addr, size
						a.Write(p, rb.Addr, respHeader)
						resp = append(resp, rb)
						if p.Now() > warmupEnd {
							c.gets++
						}
					} else {
						// The set payload was received in the
						// RX buffer; apply it to the store.
						cfg.Store.Set(p, a, key)
						rb := q.Port().Alloc(p, respHeader)
						if rb == nil {
							continue
						}
						rb.Len = respHeader
						a.Write(p, rb.Addr, respHeader)
						resp = append(resp, rb)
						if p.Now() > warmupEnd {
							c.sets++
						}
					}
				}
				q.Release(p, rx[:got])
				sent, err := sendResponses(p, &cfg, q, i, resp, end)
				if err != nil {
					if stalled == nil {
						stalled = err
					}
					q.Port().FreeBurst(p, resp[sent:])
					return
				}
				if sent < len(resp) {
					q.Port().FreeBurst(p, resp[sent:])
				}
			}
		})
	}

	deadline := end + 10*cfg.Warmup
	if err := k.RunUntil(deadline); err != nil {
		panic(fmt.Sprintf("kvstore: %v", err))
	}
	cfg.Dev.Stop()
	if err := k.RunUntil(deadline + sim.Millisecond); err != nil {
		panic(fmt.Sprintf("kvstore: %v", err))
	}
	if stalled != nil {
		panic(stalled)
	}

	var res Result
	var transmitted int64
	for i := range cs {
		res.Gets += cs[i].gets
		res.Sets += cs[i].sets
		transmitted += txAtEnd[i] - txAtWarmup[i]
	}
	res.OpsPerSec = float64(transmitted) / cfg.Measure.Seconds()
	return res
}

// sendResponses pushes a response burst to the NIC, returning how many
// were accepted. Fault-free, any zero-progress attempt is a short
// fixed-interval poll (the pre-existing behavior, so golden transcripts
// are unchanged) under the StallTimeout watchdog. With a fault plan
// armed, zero-progress attempts use exponential backoff and a bounded
// retry budget: once the budget is spent — comfortably past the driver's
// doorbell re-ring — the remainder is dropped as timed out, the client's
// retry being the recovery path. A non-nil *StallError means the
// watchdog fired; the caller owns resp[sent:].
func sendResponses(p *sim.Proc, cfg *Config, q device.Queue, queue int, resp []*bufpool.Buf, end sim.Time) (int, *StallError) {
	flt := cfg.Sys.Faults()
	st := flt.Stats()
	const base = 100 * sim.Nanosecond
	sent := 0
	backoff := base
	misses := 0
	stallStart := sim.Time(-1)
	for sent < len(resp) && p.Now() < end {
		n := q.TxBurst(p, resp[sent:])
		if n == 0 {
			now := p.Now()
			if stallStart < 0 {
				stallStart = now
			} else if now-stallStart >= cfg.StallTimeout {
				return sent, &StallError{
					Queue:   queue,
					Stalled: now - stallStart,
					Pending: len(resp) - sent,
					At:      now,
				}
			}
			if flt != nil {
				misses++
				if misses > 8 {
					// Request timeout: drop the remainder.
					for range resp[sent:] {
						st.NoteDrop()
					}
					return sent, nil
				}
				st.NoteBackoff()
				p.Sleep(backoff)
				backoff *= 2
			} else {
				p.Sleep(base)
			}
			continue
		}
		if flt != nil && stallStart >= 0 {
			st.NoteRetry()
		}
		stallStart = -1
		backoff = base
		misses = 0
		sent += n
	}
	return sent, nil
}

// headerLines returns the first line of each request for header touching.
func headerLines(bufs []*bufpool.Buf) []mem.Addr {
	lines := make([]mem.Addr, 0, len(bufs))
	for _, b := range bufs {
		lines = append(lines, mem.LineOf(b.Addr))
	}
	return lines
}
