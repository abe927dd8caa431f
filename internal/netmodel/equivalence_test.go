package netmodel

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hog/internal/sim"
)

// flowKind is the shape of one transfer in a randomized flow schedule.
type flowKind int

const (
	flowLAN flowKind = iota
	flowWAN
	flowDisk
	flowZero
)

// flowSpec is one transfer an op starts.
type flowSpec struct {
	kind     flowKind
	src, dst NodeID
	bytes    float64
}

// schedOp is one step of a flow schedule: at instant at, start flows and,
// if cancelAt > 0, cancel them all at cancelAt (both inside Batch when batch
// is set); or, with no flows, change a node's disk factor (factor > 0) or a
// site's WAN bandwidth.
type schedOp struct {
	at       sim.Time
	flows    []flowSpec
	batch    bool
	cancelAt sim.Time
	site     int
	up, down float64
	node     NodeID
	factor   float64
}

const schedSites = 3

// siteBps are the WAN capacities a bandwidth op picks from; 0 stalls every
// flow crossing the link until a later op restores it.
var siteBps = []float64{0, 20e6, 100e6, 200e6}

// genSchedule builds a reproducible mixed schedule of nOps ops over a 3-site
// network: LAN, cross-site and disk transfers, zero-byte flows, mid-flight
// cancels, same-instant Batch waves of LAN or WAN flows, site bandwidth
// changes and disk deratings. draw(n) returns a value in [0, n). Times sit
// on a millisecond grid and sizes on a few values, so flows finish at the
// same instant and their order rests on the tie-breaking sequence numbers
// the rebalance draws. A wave's flows share their destination NIC, so each
// join and each batched cancel changes the rates of flows found on several
// dirty links at once, and only a creation-order merge of those links'
// flows re-times them in the order the oracle does.
func genSchedule(draw func(n int) int, nOps, nodesPerSite int) []schedOp {
	nodes := schedSites * nodesPerSite
	spec := func(kind flowKind) flowSpec {
		src := draw(nodes)
		site := src / nodesPerSite
		fs := flowSpec{kind: kind, src: NodeID(src), bytes: float64(1+draw(8)) * 2e6}
		switch kind {
		case flowLAN:
			dst := site*nodesPerSite + draw(nodesPerSite)
			if dst == src {
				dst = site*nodesPerSite + (src+1)%nodesPerSite
			}
			fs.dst = NodeID(dst)
		case flowWAN:
			far := (site + 1 + draw(schedSites-1)) % schedSites
			fs.dst = NodeID(far*nodesPerSite + draw(nodesPerSite))
		case flowZero:
			fs.dst = NodeID((src + 1) % nodes)
			fs.bytes = 0
		}
		return fs
	}
	ops := make([]schedOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		op := schedOp{at: sim.Time(draw(2000)) * sim.Millisecond}
		switch k := draw(16); {
		case k < 3:
			op.flows = []flowSpec{spec(flowLAN)}
		case k < 6:
			op.flows = []flowSpec{spec(flowWAN)}
		case k < 8:
			op.flows = []flowSpec{spec(flowDisk)}
		case k < 9:
			op.flows = []flowSpec{spec(flowZero)}
		case k < 11:
			op.flows = []flowSpec{spec(flowKind(draw(2)))}
			op.cancelAt = op.at + sim.Time(1+draw(1000))*sim.Millisecond
		case k < 14:
			// A shuffle wave: equal-sized fetches from one site into one
			// node, started together and, half the time, canceled together.
			op.batch = true
			dst, site := draw(nodes), draw(schedSites)
			bytes := float64(1+draw(8)) * 2e6
			for w := 2 + draw(7); w > 0; w-- {
				src := site*nodesPerSite + draw(nodesPerSite)
				if src == dst {
					src = site*nodesPerSite + (src+1)%nodesPerSite
				}
				kind := flowLAN
				if site != dst/nodesPerSite {
					kind = flowWAN
				}
				op.flows = append(op.flows, flowSpec{kind: kind, src: NodeID(src), dst: NodeID(dst), bytes: bytes})
			}
			if draw(2) == 0 {
				op.cancelAt = op.at + sim.Time(1+draw(1000))*sim.Millisecond
			}
		case k < 15:
			op.site = draw(schedSites)
			op.up, op.down = siteBps[draw(len(siteBps))], siteBps[draw(len(siteBps))]
		default:
			op.node = NodeID(draw(nodes))
			op.factor = float64(1 + draw(4))
		}
		ops = append(ops, op)
	}
	return ops
}

// randomSchedule draws genSchedule's choices from r.
func randomSchedule(r *rand.Rand, nOps, nodesPerSite int) []schedOp {
	return genSchedule(r.Intn, nOps, nodesPerSite)
}

// runResult is everything a schedule run must reproduce exactly.
type runResult struct {
	done        []sim.Time // per flow, in schedule order; -1 if never completed
	order       []int      // flow indices in completion order
	stats       Stats
	fired, seqs uint64
}

// recomputeAll is the rebalance oracle: it recomputes every active flow in
// creation order, re-timing those whose equal-share rate moved (or that
// hold no pending completion). Every active flow sits in exactly one node's
// uplink registry (network flows) or disk registry (disk I/O).
func recomputeAll(n *Network) {
	var active []*Flow
	for _, nd := range n.nodes {
		active = append(active, nd.up.flows...)
		active = append(active, nd.disk.flows...)
	}
	sort.Slice(active, func(i, j int) bool { return active[i].seq < active[j].seq })
	now := n.eng.Now()
	for _, f := range active {
		rate := n.flowRate(f)
		if rate == f.rate && (rate <= 0 || f.timer.Active()) {
			continue
		}
		n.applyRate(f, now, rate)
	}
}

// runSchedule executes ops on a fresh network, with the incremental
// rebalance or (oracle) recomputeAll, checking the link registries after
// every engine step.
func runSchedule(tb testing.TB, ops []schedOp, nodesPerSite int, oracle bool) runResult {
	tb.Helper()
	eng := sim.New(1)
	net := New(eng, Config{
		NodeBps:    100e6,
		DiskBps:    50e6,
		WANFlowBps: 10e6,
		LANLatency: sim.Millisecond,
		WANLatency: 40 * sim.Millisecond,
	})
	for s := 0; s < schedSites; s++ {
		site := net.AddSite("s", 200e6, 200e6)
		for i := 0; i < nodesPerSite; i++ {
			net.AddNode(site, "n")
		}
	}
	var flows []*Flow
	if oracle {
		net.oracle = func() { recomputeAll(net) }
	}
	var res runResult
	first := make([]int, len(ops)) // index of each op's first flow
	for i, op := range ops {
		first[i] = len(res.done)
		for range op.flows {
			res.done = append(res.done, -1)
		}
	}
	for i, op := range ops {
		i, op := i, op
		eng.Schedule(op.at, func() {
			if op.flows == nil {
				if op.factor > 0 {
					net.SetNodeDiskFactor(op.node, op.factor)
				} else {
					net.SetSiteBandwidth(SiteID(op.site), op.up, op.down)
				}
				return
			}
			started := make([]*Flow, len(op.flows))
			start := func() {
				for k, fs := range op.flows {
					id := first[i] + k
					record := func() {
						res.done[id] = eng.Now()
						res.order = append(res.order, id)
					}
					if fs.kind == flowDisk {
						started[k] = net.StartDiskIO(fs.src, fs.bytes, record)
					} else {
						started[k] = net.StartFlow(fs.src, fs.dst, fs.bytes, record)
					}
					flows = append(flows, started[k])
				}
			}
			if op.batch {
				net.Batch(start)
			} else {
				start()
			}
			if op.cancelAt > 0 {
				eng.Schedule(op.cancelAt, func() {
					cancel := func() {
						for _, f := range started {
							f.Cancel()
						}
					}
					if op.batch {
						net.Batch(cancel)
					} else {
						cancel()
					}
				})
			}
		})
	}
	eng.RunWhile(func() bool {
		checkRegistries(tb, net, flows)
		return true
	})
	checkRegistries(tb, net, flows)
	res.stats = net.Stats()
	res.fired, res.seqs = eng.Fired(), eng.SeqCount()
	return res
}

// checkRegistries asserts that every link's registry is strictly
// seq-ascending and holds exactly the active flows crossing it, that its
// cached share is current, and that the active count matches. flows holds
// every flow the network has created.
func checkRegistries(tb testing.TB, n *Network, flows []*Flow) {
	tb.Helper()
	var links []*link
	for _, s := range n.sites {
		links = append(links, &s.up, &s.down)
	}
	for _, nd := range n.nodes {
		links = append(links, &nd.up, &nd.down, &nd.disk)
	}
	entries := 0
	for li, l := range links {
		for i, f := range l.flows {
			if i > 0 && l.flows[i-1].seq >= f.seq {
				tb.Fatalf("at %v link %d: registry not strictly seq-ascending at %d (%d then %d)",
					n.eng.Now(), li, i, l.flows[i-1].seq, f.seq)
			}
			if !f.active || f.finished {
				tb.Fatalf("at %v link %d: registry holds flow %d (active %v, finished %v)",
					n.eng.Now(), li, f.seq, f.active, f.finished)
			}
			crosses := false
			for _, fl := range f.links {
				crosses = crosses || fl == l
			}
			if !crosses {
				tb.Fatalf("at %v link %d: registry holds flow %d, which does not cross it", n.eng.Now(), li, f.seq)
			}
		}
		entries += len(l.flows)
		want := l.capacity
		if len(l.flows) > 0 {
			want = l.capacity / float64(len(l.flows))
		}
		if l.shareVal != want {
			tb.Fatalf("at %v link %d: cached share %v, want %v", n.eng.Now(), li, l.shareVal, want)
		}
	}
	// Every entry is a distinct (active flow, link it crosses) pair, so equal
	// counts mean every active flow sits in each of its links' registries.
	active, pairs := 0, 0
	for _, f := range flows {
		if f.active {
			active++
			pairs += len(f.links)
		}
	}
	if entries != pairs || active != n.nActive {
		tb.Fatalf("at %v: %d registry entries for %d active flows crossing %d links (nActive %d)",
			n.eng.Now(), entries, active, pairs, n.nActive)
	}
}

// compareRuns requires the incremental run to reproduce the oracle run
// exactly: completion order, bit-identical completion times, Stats, and the
// engine's fired and sequence counts.
func compareRuns(tb testing.TB, inc, ora runResult) {
	tb.Helper()
	for i := range inc.done {
		if inc.done[i] != ora.done[i] {
			tb.Fatalf("flow %d: incremental done at %v, oracle at %v", i, inc.done[i], ora.done[i])
		}
	}
	if len(inc.order) != len(ora.order) {
		tb.Fatalf("%d completions, oracle %d", len(inc.order), len(ora.order))
	}
	for i := range inc.order {
		if inc.order[i] != ora.order[i] {
			tb.Fatalf("completion %d: incremental flow %d, oracle flow %d", i, inc.order[i], ora.order[i])
		}
	}
	if inc.stats != ora.stats {
		tb.Fatalf("stats diverge: incremental %+v oracle %+v", inc.stats, ora.stats)
	}
	if inc.fired != ora.fired || inc.seqs != ora.seqs {
		tb.Fatalf("engine diverges: incremental fired %d seqs %d, oracle fired %d seqs %d",
			inc.fired, inc.seqs, ora.fired, ora.seqs)
	}
}

// TestRebalancerEquivalence asserts that the incremental link-scoped
// rebalancer and the recompute-everything oracle complete the same flows
// in the same order at bit-identical instants, with identical Stats and
// engine counts, on randomized schedules. Both settle flows at exactly the
// rate-change instants, so no float drift is tolerated; the order of
// same-instant completions pins the order in which the rebalance re-times
// changed flows.
func TestRebalancerEquivalence(t *testing.T) {
	ties := 0
	for _, nodesPerSite := range []int{5, 10} {
		for seed := int64(0); seed < 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			ops := randomSchedule(r, 200, nodesPerSite)
			inc := runSchedule(t, ops, nodesPerSite, false)
			ora := runSchedule(t, ops, nodesPerSite, true)
			compareRuns(t, inc, ora)
			for i := 1; i < len(inc.order); i++ {
				if inc.done[inc.order[i]] == inc.done[inc.order[i-1]] {
					ties++
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two flows completed at the same instant; the schedules no longer pin re-timing order")
	}

	// A hand-built case: three equal flows on disjoint NICs of one site are
	// each slowed by one flow of a wave into node 6. The wave's batched
	// cancel finds them on three dirty uplinks in reverse creation order,
	// so the merge must reorder three runs for the tie to resolve as the
	// oracle resolves it.
	crafted := []schedOp{
		{flows: []flowSpec{{flowLAN, 0, 1, 40e6}}},
		{flows: []flowSpec{{flowLAN, 2, 3, 40e6}}},
		{flows: []flowSpec{{flowLAN, 4, 5, 40e6}}},
		{at: 100 * sim.Millisecond, cancelAt: 200 * sim.Millisecond, batch: true,
			flows: []flowSpec{{flowLAN, 4, 6, 40e6}, {flowLAN, 2, 6, 40e6}, {flowLAN, 0, 6, 40e6}}},
	}
	inc := runSchedule(t, crafted, 8, false)
	ora := runSchedule(t, crafted, 8, true)
	compareRuns(t, inc, ora)
	if ora.done[0] != ora.done[1] || ora.done[1] != ora.done[2] {
		t.Fatalf("crafted flows complete at %v, %v, %v; want one instant", ora.done[0], ora.done[1], ora.done[2])
	}
}

// TestRebalancerDeterminism: the same schedule twice through the incremental
// path must agree with itself exactly (stable iteration order, no map order).
func TestRebalancerDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ops := randomSchedule(r, 300, 6)
	compareRuns(t, runSchedule(t, ops, 6, false), runSchedule(t, ops, 6, false))
}

// TestBatchNeutral: starting a wave of same-instant disk I/Os inside Batch
// must complete them at the same times as starting them unbatched.
func TestBatchNeutral(t *testing.T) {
	run := func(batch bool) []sim.Time {
		eng := sim.New(1)
		net := New(eng, Config{DiskBps: 50e6, LANLatency: sim.Millisecond})
		s := net.AddSite("s", 1e9, 1e9)
		node := net.AddNode(s, "n")
		var times []sim.Time
		start := func() {
			for i := 0; i < 8; i++ {
				bytes := float64(5+i) * 1e6
				net.StartDiskIO(node, bytes, func() { times = append(times, eng.Now()) })
			}
		}
		if batch {
			net.Batch(start)
		} else {
			start()
		}
		eng.Run()
		return times
	}
	plain, batched := run(false), run(true)
	if len(plain) != 8 || len(batched) != 8 {
		t.Fatalf("completions: plain %d batched %d, want 8", len(plain), len(batched))
	}
	for i := range plain {
		if plain[i] != batched[i] {
			t.Fatalf("completion %d: plain %v batched %v", i, plain[i], batched[i])
		}
	}
}

// TestZeroByteFlowCancelable: the seed marked zero-byte flows finished at
// admit time, so Cancel was a no-op and done still fired after the latency.
func TestZeroByteFlowCancelable(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{NodeBps: 100e6, LANLatency: sim.Millisecond})
	s := net.AddSite("s", 1e9, 1e9)
	a, b := net.AddNode(s, "a"), net.AddNode(s, "b")
	done := false
	f := net.StartFlow(a, b, 0, func() { done = true })
	f.Cancel()
	eng.Run()
	if done {
		t.Fatal("canceled zero-byte flow still invoked done")
	}
	if got := net.Stats().FlowsCanceled; got != 1 {
		t.Fatalf("FlowsCanceled = %d, want 1", got)
	}
}

// TestPreJoinCancel: canceling during the propagation latency, before the
// flow joins its links, must suppress done and leave no active flows.
func TestPreJoinCancel(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{NodeBps: 100e6, LANLatency: 10 * sim.Millisecond})
	s := net.AddSite("s", 1e9, 1e9)
	a, b := net.AddNode(s, "a"), net.AddNode(s, "b")
	done := false
	f := net.StartFlow(a, b, 5e6, func() { done = true })
	eng.After(sim.Millisecond, f.Cancel) // before the 10 ms latency elapses
	eng.Run()
	if done {
		t.Fatal("pre-join canceled flow invoked done")
	}
	if net.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d, want 0", net.ActiveFlows())
	}
}

// TestConservationAcrossModes: byte conservation holds under both the
// incremental rebalance and the oracle for a heavier contended mix (sanity
// beyond the bit-equality tests).
func TestConservationAcrossModes(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		r := rand.New(rand.NewSource(7))
		ops := randomSchedule(r, 150, 4)
		var want float64
		for _, op := range ops {
			for _, fs := range op.flows {
				if fs.kind != flowDisk {
					want += fs.bytes // offered network load (cancel ops may or may not deliver)
				}
			}
		}
		total := runSchedule(t, ops, 4, oracle).stats.BytesTotal
		// Canceled and stalled flows do not deliver their bytes; just
		// require the total not to exceed the offered network load and to
		// be positive.
		if total <= 0 || total > want+1 {
			t.Fatalf("oracle=%v: BytesTotal %.0f outside (0, %.0f]", oracle, total, want)
		}
		if math.IsNaN(total) {
			t.Fatalf("oracle=%v: BytesTotal is NaN", oracle)
		}
	}
}
