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
	"math"
	"math/rand"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/fault"
	"ccnic/internal/loopback"
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

// object is one stored value: its offset from the store's base, in cache
// lines, and its size. NewStore lays the objects out back to back, so 8 B
// per key locate them (a million keys take 7.6 MiB of host heap, not 15.3).
type object struct {
	line, size uint32
}

// Store is the hash-indexed object store, shared by all server threads.
type Store struct {
	sys     *coherence.System
	nKeys   int
	buckets mem.Addr // index bucket array, one 64B bucket line per 4 keys
	nBucket int
	base    mem.Addr // the first object's address
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
		addr := sp.Alloc(home, size, 0)
		if i == 0 {
			s.base = addr
		}
		line := (addr - s.base) / mem.LineSize
		if uint64(line) > math.MaxUint32 || uint64(size) > math.MaxUint32 {
			panic(fmt.Sprintf("kvstore: object %d (line %d, %d B) overflows the object table", i, line, size))
		}
		s.objects[i] = object{line: uint32(line), size: uint32(size)}
	}
	return s
}

// object returns key's address and size.
func (s *Store) object(key int) (mem.Addr, int) {
	o := s.objects[key%s.nKeys]
	return s.base + mem.Addr(o.line)*mem.LineSize, int(o.size)
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
	return s.object(key)
}

// Set performs an index lookup and writes the object's new contents.
func (s *Store) Set(p *sim.Proc, a *coherence.Agent, key int) int {
	a.Read(p, s.bucketLine(key), 16)
	addr, size := s.object(key)
	a.StreamWrite(p, addr, size)
	a.Write(p, s.bucketLine(key), 16) // version/metadata update
	return size
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
		_, size := g.st.object(key)
		reqSize += size
	}
	return get, key, reqSize
}

// Run executes the key-value workload and reports completed operations.
func Run(cfg Config) Result {
	nq := cfg.Dev.NumQueues()
	// Wire up deterministic request streams: the device's generator and
	// the server replay identical sequences per queue.
	devGens := make([]*opGen, nq)
	serverGens := make([]*opGen, nq)
	for i := 0; i < nq; i++ {
		seed := cfg.Seed + int64(i)*7919
		devGens[i] = newOpGen(seed, cfg.Store)
		serverGens[i] = newOpGen(seed, cfg.Store)
	}
	w := &loopback.Window{Name: "kvstore", Sys: cfg.Sys, Dev: cfg.Dev, Hosts: len(cfg.Hosts),
		Warmup: cfg.Warmup, Measure: cfg.Measure,
		Rate: cfg.RatePerQueue, Ingress: func(i int) int {
			_, _, size := devGens[i].next()
			return size
		}}
	w.Start()
	w.CountTx()
	type counters struct{ gets, sets int64 }
	cs := make([]counters, nq)

	for i := 0; i < nq; i++ {
		q := cfg.Dev.Queue(i)
		a := cfg.Hosts[i]
		gen := serverGens[i]
		c := &cs[i]
		w.Go(fmt.Sprintf("kvserver%d", i), func(p *sim.Proc) {
			rx := make([]*bufpool.Buf, burst)
			for p.Now() < w.End {
				got := q.RxBurst(p, rx)
				if got == 0 {
					p.Sleep(cfg.Sys.Platform().PollGap * 2)
					continue
				}
				// Touch request headers (overlapped across burst).
				a.GatherRead(p, loopback.FirstLines(rx[:got]))
				resp := make([]*bufpool.Buf, 0, got)
				for j := 0; j < got; j++ {
					get, key, _ := gen.next()
					a.Exec(p, 20*sim.Nanosecond) // RPC parse/dispatch
					// A get's object is a second, zero-copy TX
					// segment (DPDK extbuf); a set's payload arrived
					// in the RX buffer and is applied to the store.
					var addr mem.Addr
					size := 0
					if get {
						addr, size = cfg.Store.Get(p, a, key)
					} else {
						cfg.Store.Set(p, a, key)
					}
					rb := q.Port().Alloc(p, respHeader)
					if rb == nil {
						continue
					}
					rb.Len = respHeader
					rb.ExtAddr, rb.ExtLen = addr, size
					a.Write(p, rb.Addr, respHeader)
					resp = append(resp, rb)
					if p.Now() <= w.WarmupEnd {
						continue
					}
					if get {
						c.gets++
					} else {
						c.sets++
					}
				}
				q.Release(p, rx[:got])
				if sent := w.Push(p, q, i, resp, respPush); sent < len(resp) {
					q.Port().FreeBurst(p, resp[sent:])
				}
			}
		})
	}
	w.Finish()

	var res Result
	for i := range cs {
		res.Gets += cs[i].gets
		res.Sets += cs[i].sets
	}
	res.OpsPerSec = float64(w.Transmitted()) / w.Measure.Seconds()
	return res
}

// respPush is the response TX push: a bounded retry (8 backoffs, ~25.5us
// cumulative) per response burst, then the remainder drops as timed out,
// the client's retry being the recovery path.
var respPush = loopback.Backoff{Budget: 8, Credit: (*fault.Stats).NoteRetry}
