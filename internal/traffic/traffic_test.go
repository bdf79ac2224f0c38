package traffic

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestPatterns(t *testing.T) {
	m := topology.NewMesh(4, 4)
	rng := rand.New(rand.NewSource(1))

	tr := Transpose{Mesh: m}
	if got := tr.Dest(m.Node(1, 3), rng); got != m.Node(3, 1) {
		t.Fatalf("transpose(1,3) = %d, want (3,1)", got)
	}

	bc := BitComplement{Nodes: 16}
	if got := bc.Dest(0b0101, rng); got != 0b1010 {
		t.Fatalf("bitcomplement(0101) = %04b", got)
	}

	br := BitReverse{Bits: 4}
	if got := br.Dest(0b0001, rng); got != 0b1000 {
		t.Fatalf("bitreverse(0001) = %04b", got)
	}
	if got := br.Dest(0b1010, rng); got != 0b0101 {
		t.Fatalf("bitreverse(1010) = %04b", got)
	}

	to := Tornado{Mesh: m}
	if got := to.Dest(m.Node(0, 2), rng); got != m.Node(1, 2) {
		t.Fatalf("tornado(0,2) = %d, want (1,2)", got)
	}

	u := Uniform{Nodes: 16}
	seen := map[topology.NodeID]bool{}
	for i := 0; i < 200; i++ {
		d := u.Dest(0, rng)
		if d < 0 || d > 15 {
			t.Fatalf("uniform out of range: %d", d)
		}
		seen[d] = true
	}
	if len(seen) < 12 {
		t.Fatalf("uniform covered only %d destinations", len(seen))
	}

	hs := Hotspot{Nodes: 16, Hot: []topology.NodeID{5}, Fraction: 1.0}
	for i := 0; i < 10; i++ {
		if hs.Dest(0, rng) != 5 {
			t.Fatal("hotspot with fraction 1 must hit the hot node")
		}
	}

	nb := Neighbor{Graph: m}
	for i := 0; i < 50; i++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		d := nb.Dest(src, rng)
		if d != src && m.Dist(src, d) != 1 {
			t.Fatalf("neighbor pattern gave non-neighbor %d->%d", src, d)
		}
	}
}

func TestGeneratorValidate(t *testing.T) {
	m := topology.NewMesh(4, 4)
	g := &Generator{}
	if err := g.Validate(); err == nil {
		t.Fatal("empty generator should fail validation")
	}
	g = &Generator{Graph: m, Pattern: Uniform{Nodes: 16}, Rng: rand.New(rand.NewSource(1)), Length: 1}
	if err := g.Validate(); err == nil {
		t.Fatal("length 1 should fail")
	}
	g.Length = 4
	g.Rate = 100
	if err := g.Validate(); err == nil {
		t.Fatal("absurd rate should fail")
	}
	// NaN compares false both ways and +Inf/Length is a probability of
	// +Inf: neither may pass as "in range".
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		g.Rate = r
		if err := g.Validate(); err == nil {
			t.Fatalf("rate %v should fail", r)
		}
	}
	g.Rate = 0.2
	if err := g.Validate(); err != nil {
		t.Fatalf("valid generator rejected: %v", err)
	}
	// Rate/Length >= 1 is valid: one message per eligible node per cycle.
	g.Rate, g.Length = 4, 2
	if err := g.Validate(); err != nil {
		t.Fatalf("rate 4 of length-2 messages on a 4-port mesh rejected: %v", err)
	}
}

func TestGeneratorRate(t *testing.T) {
	m := topology.NewMesh(4, 4)
	net := network.New(network.Config{Graph: m, Algorithm: routing.NewNARA(m)})
	g := &Generator{
		Graph:   m,
		Pattern: Uniform{Nodes: m.Nodes()},
		Rate:    0.32, // msg prob 0.32/8 = 0.04 per node per cycle
		Length:  8,
		Rng:     rand.New(rand.NewSource(11)),
	}
	cycles := 3000
	for i := 0; i < cycles; i++ {
		g.Tick(net)
		net.Step()
	}
	// Expected offered messages ~ nodes*cycles*0.04 (minus self-pairs,
	// 1/16 of draws). Allow 15% tolerance.
	expect := float64(m.Nodes()*cycles) * 0.04 * (15.0 / 16.0)
	got := float64(g.Offered)
	if got < 0.85*expect || got > 1.15*expect {
		t.Fatalf("offered %v, expected about %v", got, expect)
	}
}

func TestGeneratorExclude(t *testing.T) {
	m := topology.NewMesh(4, 4)
	net := network.New(network.Config{Graph: m, Algorithm: routing.NewNARA(m)})
	banned := m.Node(1, 1)
	g := &Generator{
		Graph:   m,
		Pattern: Uniform{Nodes: m.Nodes()},
		Rate:    1.0,
		Length:  2,
		Rng:     rand.New(rand.NewSource(5)),
		Exclude: func(n topology.NodeID) bool { return n == banned },
	}
	for i := 0; i < 200; i++ {
		g.Tick(net)
		net.Step()
	}
	net.Drain(10000)
	for _, msg := range net.Messages {
		_ = msg
	}
	// Check via recorded stats: no message may involve the banned
	// node. RecordMessages was off, so re-run with recording.
	net2 := network.New(network.Config{Graph: m, Algorithm: routing.NewNARA(m), RecordMessages: true})
	g.Rng = rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		g.Tick(net2)
		net2.Step()
	}
	for _, msg := range net2.Messages {
		if msg.Hdr.Src == banned || msg.Hdr.Dst == banned {
			t.Fatalf("excluded node involved in %d->%d", msg.Hdr.Src, msg.Hdr.Dst)
		}
	}
}

// successLog is a pattern that records where the generator's successes
// land — (tick, source) in call order — and addresses every message to
// the next node, so no success is discarded as self-addressed.
type successLog struct {
	nodes int
	tick  int // advanced by the test, once per Tick
	hits  []hit
}

type hit struct {
	tick int
	src  topology.NodeID
}

func (l *successLog) Name() string { return "success-log" }
func (l *successLog) Dest(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	l.hits = append(l.hits, hit{l.tick, src})
	return (src + 1) % topology.NodeID(l.nodes)
}

// newGen returns a generator of length-8 messages at per-cell
// probability p over m, and its success log.
func newGen(m *topology.Mesh, p float64, seed int64) (*Generator, *successLog) {
	log := &successLog{nodes: m.Nodes()}
	return &Generator{Graph: m, Pattern: log, Rate: 8 * p, Length: 8, Rng: rand.New(rand.NewSource(seed))}, log
}

// idleNet is a w x w mesh network the tests never step: injected
// messages only queue.
func idleNet(w int) (*network.Network, *topology.Mesh) {
	m := topology.NewMesh(w, w)
	return network.New(network.Config{Graph: m, Algorithm: routing.NewNARA(m)}), m
}

func (l *successLog) run(g *Generator, net *network.Network, ticks int) {
	for i := 0; i < ticks; i++ {
		g.Tick(net)
		l.tick++
	}
}

// TestGeneratorPerNodeBinomial: every node's offered count, summed over
// 200 seeds, lies within 4 sigma of the binomial the Bernoulli raster
// promises, at the three per-cell probabilities the benchmark workloads
// use (0.005/8, 0.05/8, 0.25/8) on 64 and 4096 nodes; so does the total.
func TestGeneratorPerNodeBinomial(t *testing.T) {
	const seeds = 200
	for _, w := range []int{8, 64} {
		for _, p := range []float64{0.000625, 0.00625, 0.03125} {
			ticks := int(0.5 / p) // about 100 expected messages per node
			counts := make([]float64, w*w)
			net, m := idleNet(w)
			for seed := int64(0); seed < seeds; seed++ {
				g, log := newGen(m, p, 1000+seed)
				queued := net.Queued()
				log.run(g, net, ticks)
				for _, h := range log.hits {
					counts[h.src]++
				}
				if int(g.Offered) != len(log.hits) || net.Queued()-queued != len(log.hits) {
					t.Fatalf("offered %d, queued %d, successes %d", g.Offered, net.Queued()-queued, len(log.hits))
				}
			}
			trials := float64(seeds * ticks)
			mean, sigma := trials*p, math.Sqrt(trials*p*(1-p))
			total := 0.0
			for node, c := range counts {
				total += c
				if math.Abs(c-mean) > 4*sigma {
					t.Errorf("%dx%d p=%v node %d: %v messages, binomial mean %v sigma %.2f", w, w, p, node, c, mean, sigma)
				}
			}
			n := float64(len(counts))
			if math.Abs(total-n*mean) > 4*sigma*math.Sqrt(n) {
				t.Errorf("%dx%d p=%v: %v messages in all, binomial mean %v sigma %.1f", w, w, p, total, n*mean, sigma*math.Sqrt(n))
			}
		}
	}
}

// TestGeneratorGapsGeometric: the raster distance between consecutive
// successes follows the geometric pmf p(1-p)^k (chi-squared over the
// gaps 0..63 and the tail).
func TestGeneratorGapsGeometric(t *testing.T) {
	const p, bins = 0.03125, 64
	net, m := idleNet(8)
	g, log := newGen(m, p, 7)
	log.run(g, net, 40000)
	observed := make([]float64, bins+1)
	prev := int64(-1)
	for _, h := range log.hits {
		cell := int64(h.tick)*64 + int64(h.src)
		observed[min(cell-prev-1, bins)]++
		prev = cell
	}
	n := float64(len(log.hits))
	chi2 := 0.0
	for k, o := range observed {
		e := n * p * math.Pow(1-p, float64(k))
		if k == bins {
			e = n * math.Pow(1-p, bins)
		}
		chi2 += (o - e) * (o - e) / e
	}
	// 64 degrees of freedom: mean 64, sigma sqrt(128).
	if limit := bins + 4*math.Sqrt(2*bins); chi2 > limit || n < 70000 {
		t.Fatalf("chi-squared %.1f over %v gaps exceeds %.1f", chi2, n, limit)
	}
}

// TestGeneratorRateEdges: a probability of 1 or more offers one message
// per node per cycle, 0 offers nothing, and a Rate changed between two
// Ticks takes effect at the next one.
func TestGeneratorRateEdges(t *testing.T) {
	net, m := idleNet(8)
	g, log := newGen(m, 1, 3)
	for _, rate := range []float64{8, 20} { // p = 1 and p = 2.5
		g.Rate = rate
		log.hits = log.hits[:0]
		log.run(g, net, 50)
		if len(log.hits) != 50*64 {
			t.Fatalf("rate %v: %d messages in 50 cycles of 64 nodes, want one per node per cycle", rate, len(log.hits))
		}
		for i, h := range log.hits {
			if int(h.src) != i%64 {
				t.Fatalf("rate %v: success %d at node %d", rate, i, h.src)
			}
		}
	}
	g.Rate = 0
	log.hits = log.hits[:0]
	log.run(g, net, 1000)
	if len(log.hits) != 0 {
		t.Fatalf("rate 0 offered %d messages", len(log.hits))
	}
	// From silence to p = 1e-6 (whose pending gap is some 15000 cycles
	// long), on to 1/16 and to 1/128: each stretch offers what its own
	// rate promises (4 sigma) from its first cycles on.
	for _, p := range []float64{1e-6, 1.0 / 16, 1.0 / 128} {
		g.Rate = 8 * p
		log.hits = log.hits[:0]
		log.run(g, net, 2000)
		trials := 2000.0 * 64
		if got := float64(len(log.hits)); math.Abs(got-trials*p) > 4*math.Sqrt(trials*p*(1-p)) {
			t.Fatalf("p=%v: %v messages in 2000 cycles, expected about %v", p, got, trials*p)
		}
		if p > 1e-3 && log.hits[0].tick-(log.tick-2000) > 10 {
			t.Fatalf("p=%v: first success at cycle %d of the stretch", p, log.hits[0].tick-(log.tick-2000))
		}
	}
	// A zero-value generator state at a tiny rate: the first gap is
	// drawn, not taken as 0.
	g, log = newGen(m, 1e-9, 3)
	log.run(g, net, 1000)
	if len(log.hits) != 0 {
		t.Fatalf("p=1e-9 offered %d messages in 64000 cells", len(log.hits))
	}
}

// TestGeneratorExcludeFlipsMidRun: with an exclusion set that changes
// every few cycles, no message ever names a node excluded at the cycle
// it was offered, as source or as destination, and the others still
// send.
func TestGeneratorExcludeFlipsMidRun(t *testing.T) {
	m := topology.NewMesh(8, 8)
	net := network.New(network.Config{Graph: m, Algorithm: routing.NewNARA(m), RecordMessages: true})
	phase := 0
	excluded := func(n topology.NodeID) bool { return (int(n)+phase)%3 == 0 }
	g := &Generator{Graph: m, Pattern: Uniform{Nodes: 64}, Rate: 0.8, Length: 8,
		Rng: rand.New(rand.NewSource(9)), Exclude: excluded}
	seen := 0
	for cyc := 0; cyc < 3000; cyc++ {
		if cyc%7 == 0 {
			phase++
		}
		g.Tick(net)
		for _, msg := range net.Messages[seen:] {
			if excluded(msg.Hdr.Src) || excluded(msg.Hdr.Dst) {
				t.Fatalf("cycle %d: message %d->%d names an excluded node", cyc, msg.Hdr.Src, msg.Hdr.Dst)
			}
		}
		seen = len(net.Messages)
	}
	// Two thirds of the sources, two thirds of their destinations.
	if expect := 3000 * 64 * 0.1 * 4 / 9; float64(seen) < 0.9*expect || float64(seen) > 1.1*expect {
		t.Fatalf("%d messages offered, expected about %.0f", seen, expect)
	}
}

// TestGeneratorCarriedSkipExact: the message sequence is a function of
// the seed alone. Ticking and stepping in turns, or ticking 1000 cycles
// at a time between steps, gives the same (cycle, source, destination)
// sequence, and it is the one a walk over the flat raster — one cell
// index, no per-cycle carry — draws from the same stream.
func TestGeneratorCarriedSkipExact(t *testing.T) {
	const p, cycles, nodes = 0.004, 3000, 64
	type offer struct {
		tick     int
		src, dst topology.NodeID
	}
	run := func(stepEvery int) []offer {
		m := topology.NewMesh(8, 8)
		net := network.New(network.Config{Graph: m, Algorithm: routing.NewNARA(m), RecordMessages: true})
		g := &Generator{Graph: m, Pattern: Uniform{Nodes: nodes}, Rate: 8 * p, Length: 8, Rng: rand.New(rand.NewSource(77))}
		var seq []offer
		for cyc := 0; cyc < cycles; cyc++ {
			before := len(net.Messages)
			g.Tick(net)
			for _, msg := range net.Messages[before:] {
				seq = append(seq, offer{cyc, msg.Hdr.Src, msg.Hdr.Dst})
			}
			if (cyc+1)%stepEvery == 0 {
				net.Run(int64(stepEvery))
			}
		}
		return seq
	}
	rng := rand.New(rand.NewSource(77))
	gap := func() int64 { return int64(math.Log(1-rng.Float64()) / math.Log1p(-p)) }
	var flat []offer
	for cell := gap(); cell < cycles*nodes; cell += 1 + gap() {
		src := topology.NodeID(cell % nodes)
		if dst := (Uniform{Nodes: nodes}).Dest(src, rng); dst != src {
			flat = append(flat, offer{int(cell / nodes), src, dst})
		}
	}
	turns, bulk := run(1), run(1000)
	if len(flat) < 500 || !slices.Equal(turns, flat) || !slices.Equal(bulk, flat) {
		t.Fatalf("sequences differ: %d offers ticking in turns, %d in bulk, %d on the flat raster", len(turns), len(bulk), len(flat))
	}
}

// TestGeneratorTickAllocatesNothing: the generator's own walk (gap
// draws, Exclude, Pattern.Dest) allocates nothing; only network.Inject,
// which makes the Message, does.
func TestGeneratorTickAllocatesNothing(t *testing.T) {
	net, m := idleNet(64)
	g, log := newGen(m, 0.000625, 1)
	g.Pattern = selfAddressed{}
	g.Exclude = func(n topology.NodeID) bool { return n == 5 }
	if a := testing.AllocsPerRun(2000, func() { g.Tick(net) }); a != 0 || len(log.hits) != 0 {
		t.Fatalf("Tick allocates %v times per cycle", a)
	}
}

// selfAddressed spends a destination draw and returns the source, which
// the generator discards: Tick without network.Inject.
type selfAddressed struct{}

func (selfAddressed) Name() string { return "self" }
func (selfAddressed) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	rng.Int63()
	return src
}
