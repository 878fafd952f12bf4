package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync/atomic"
	"syscall"
	"time"

	"nfcompass/internal/ingress"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

// The synthetic clock: packet i of a run carries Arrival = (i+1)*gapNs no
// matter how fast the run goes, so the pump's conntrack TTL (in the same
// units) bounds concurrent flows at flowTTLNs/gapNs on every machine and
// for every run length.
const (
	gapNs     = 1000                   // nominal 1 Mpps
	flowTTLNs = 100 * time.Millisecond // => at most ~100k concurrent flows
)

// chainSeed fixes the program's configuration (generated ACL rules, GTA
// sample traffic) so --seed varies only the offered traffic: a seed that
// flipped the deployment's plan would make the figures bimodal.
const chainSeed = 1

// workload is one traffic mix plus the chain it drives.
type workload struct {
	name   string
	chain  string
	shards int
	size   traffic.SizeDist
	// templatePkts is the length of the in-memory capture the source
	// loops over.
	templatePkts int
	// flows is the number of distinct long-lived flows in the capture; 0
	// makes every capture packet its own flow and re-keys each pass, so
	// every offered packet opens a new flow.
	flows int
	// matchShare is the fraction of payloads carrying a signature token.
	matchShare float64
	// ratePPS is the open-loop offered rate: a fixed absolute rate of
	// about a quarter of the unpaced ceiling measured on a 2-vCPU Xeon
	// host. At half the ceiling a busy neighbour on a shared host pushed
	// the chain to saturation and latency rose fivefold; at a quarter it
	// moved by under 5%, so the latency metrics read the chain's batch
	// fill and service time rather than the host's load.
	ratePPS float64
	// processes is how many fresh child processes share a run's measured
	// seconds (see main.go).
	processes int
}

// workloads are chosen so that each layer named in the layer map is the
// hot spot of at least one and idle on at least one other (see layers.go).
var workloads = []*workload{
	{
		// Smallest packets, all new flows: framework and flow-state bound
		// (conntrack and NAT inserts plus TTL expiry); payload kernels idle.
		name: "newflow-64", chain: "firewall:256,ipv4,nat", shards: 1,
		size: traffic.Fixed(64), templatePkts: 1 << 16, flows: 0,
		ratePPS: 200000, processes: 5,
	},
	{
		// The same flow tables on their hit path (40k flows under NAT's
		// 45k-port cap, random order) behind a 1000-rule ACL.
		name: "established-imix", chain: "firewall:1000,ipv4,nat", shards: 1,
		size: traffic.IMIX{}, templatePkts: 40000, flows: 40000,
		ratePPS: 250000, processes: 5,
	},
	{
		// Large payloads through Aho-Corasick and regex DFA on two shards;
		// conntrack only hits and per-shard NF state dominates set-up.
		name: "payload-1360", chain: "firewall:256,ids,dpi", shards: 2,
		size: traffic.Fixed(1360), templatePkts: 8192, flows: 1024,
		matchShare: 0.25, ratePPS: 20000, processes: 2,
	},
}

// sampleStride times one packet in every stride: about 50k timed packets
// per second at any rate, odd so that every position of a 64-packet batch
// is sampled.
func (w *workload) sampleStride() int64 {
	return int64(w.ratePPS/50000) | 1
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// noMatchAlphabet avoids every default IDS/DPI pattern and regex (no '.',
// no letters that spell select/union/from).
const noMatchAlphabet = "qwertyuiop1234567890 "

// matchTokens are embedded in matching payloads: the string patterns plus
// one hit for each default regex.
var matchTokens = append(append([]string(nil), spec.DefaultPatterns...), "2049.exe", "select id from")

// capture builds the workload's in-memory pcap from seed.
func (w *workload) capture(seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	type tuple struct {
		src, dst         netpkt.IPv4Addr
		srcPort, dstPort uint16
	}
	mkTuple := func(i int) tuple {
		dstPort := uint16(80)
		if rng.Intn(5) == 0 {
			dstPort = 443
		}
		return tuple{
			src:     netpkt.IPv4Addr(0x0a000000 | uint32(i+1)),
			dst:     netpkt.IPv4Addr(0xc0a80000 | uint32(rng.Intn(1<<14))),
			srcPort: uint16(1024 + rng.Intn(60000)), dstPort: dstPort,
		}
	}
	var flows []tuple
	var order []int
	if w.flows > 0 {
		flows = make([]tuple, w.flows)
		for i := range flows {
			flows[i] = mkTuple(i)
		}
	}

	var buf bytes.Buffer
	pw, err := traffic.NewPcapWriter(&buf)
	if err != nil {
		return nil, err
	}
	const headers = netpkt.EthernetHeaderLen + netpkt.IPv4MinHeaderLen + netpkt.UDPHeaderLen
	for i := 0; i < w.templatePkts; i++ {
		var t tuple
		if w.flows == 0 {
			t = mkTuple(i)
		} else {
			// Each flow appears once per round, rounds in fresh random order.
			if i%w.flows == 0 {
				order = rng.Perm(w.flows)
			}
			t = flows[order[i%w.flows]]
		}
		payload := make([]byte, max(w.size.Next(rng)-headers, 0))
		for j := range payload {
			payload[j] = noMatchAlphabet[rng.Intn(len(noMatchAlphabet))]
		}
		if w.matchShare > 0 && rng.Float64() < w.matchShare {
			tok := matchTokens[rng.Intn(len(matchTokens))]
			if len(tok) <= len(payload) {
				copy(payload[rng.Intn(len(payload)-len(tok)+1):], tok)
			}
		}
		p := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
			SrcIP: t.src, DstIP: t.dst, SrcPort: t.srcPort, DstPort: t.dstPort,
			Payload: payload,
		})
		p.Arrival = int64(i+1) * gapNs
		if err := pw.WritePacket(p); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// openSource replays the capture the way nfcompass -source nic does
// (looping PcapSource on queue 0's arena); new-flow workloads re-key
// every pass.
func (w *workload) openSource(capt []byte, arena *netpkt.Arena) (*ingress.PcapSource, error) {
	return ingress.NewPcapSource(func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(capt)), nil
	}, ingress.PcapConfig{Loops: math.MaxInt32, RekeyPerPass: w.flows == 0, Arena: arena})
}

// clockSource wraps the replay with the synthetic clock, the run's stop
// signal and, once switched to open loop, the pacer. One goroutine calls
// Next.
type clockSource struct {
	src *ingress.PcapSource
	// n counts released packets; only Next advances it, the controller
	// reads it at window boundaries.
	n atomic.Int64

	// limit ends a replay after this many packets (reference runs); 0 is
	// unlimited and the live run ends on stop instead.
	limit int64
	stop  atomic.Bool

	// The open loop: the controller sets olWarmPkts, then paceAt; the
	// first Next after that latches packet index ol0 and wall time olT0,
	// and packet i is then due at olT0 + (i-ol0)*period. Latency and
	// lateness are sampled from measureFrom = ol0 + olWarmPkts on, after
	// the ceiling phase's backlog has drained.
	olWarmPkts  int64
	stride      int64
	paceAt      atomic.Bool
	paced       bool
	period      float64
	base        time.Time
	ol0         atomic.Int64
	olT0        atomic.Int64
	measureFrom atomic.Int64
	lateness    *sampler
}

func newClockSource(src *ingress.PcapSource, w *workload) *clockSource {
	c := &clockSource{src: src, period: 1e9 / w.ratePPS, stride: w.sampleStride(), base: time.Now()}
	c.ol0.Store(math.MaxInt64)
	c.measureFrom.Store(math.MaxInt64)
	return c
}

// Next implements ingress.Source.
func (c *clockSource) Next() (*netpkt.Packet, error) {
	n := c.n.Load()
	if c.stop.Load() || (c.limit > 0 && n >= c.limit) {
		return nil, io.EOF
	}
	if !c.paced && c.paceAt.Load() {
		c.paced = true
		c.olT0.Store(int64(time.Since(c.base)))
		c.ol0.Store(n)
		c.measureFrom.Store(n + c.olWarmPkts)
	}
	if c.paced {
		due := c.due(n)
		now := int64(time.Since(c.base))
		if now < due {
			// A raw nanosleep, not time.Sleep: while the pipeline idles
			// between bursts the runtime's timers wake a millisecond late,
			// which would make the generator, not the chain, set latency.
			ts := syscall.NsecToTimespec(due - now)
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep
			now = int64(time.Since(c.base))
		}
		if n >= c.measureFrom.Load() && n%c.stride == 0 {
			c.lateness.add(n, now-due)
		}
	}
	p, err := c.src.Next()
	if err != nil {
		return nil, err
	}
	p.Arrival = (n + 1) * gapNs
	c.n.Store(n + 1)
	return p, nil
}

// due is packet i's open-loop due time in ns since base; valid once the
// open loop has latched.
func (c *clockSource) due(i int64) int64 {
	return c.olT0.Load() + int64(float64(i-c.ol0.Load())*c.period)
}

// Close implements ingress.Source.
func (c *clockSource) Close() error { return c.src.Close() }

// packetIndex recovers a packet's position in the run from its synthetic
// Arrival stamp.
func packetIndex(p *netpkt.Packet) int64 { return p.Arrival/gapNs - 1 }
