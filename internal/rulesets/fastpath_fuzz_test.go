package rulesets

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The fuzz targets below mutate a fault set plus one routing request
// from raw bytes and assert that the dense fast path and the
// interpreted reference path select the identical fired rules and
// produce the identical candidates. Under plain `go test` only the
// seed corpus runs; `go test -fuzz FuzzRuleNAFTA ./internal/rulesets`
// explores further.

// fuzzBytes is a zero-padded byte reader so short inputs still decode.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (f *fuzzBytes) next() byte {
	if f.pos >= len(f.data) {
		return 0
	}
	b := f.data[f.pos]
	f.pos++
	return b
}

func (f *fuzzBytes) intn(n int) int { return int(f.next()) % n }

func FuzzRuleNAFTADifferential(f *testing.F) {
	m := topology.NewMesh(8, 8)
	fast, err := NewRuleNAFTA(m)
	if err != nil {
		f.Fatal(err)
	}
	interp, err := NewRuleNAFTA(m)
	if err != nil {
		f.Fatal(err)
	}
	interp.DisableFast = true
	var fastFired, interpFired []firing
	fast.OnRuleFired = recordFirings(&fastFired)
	interp.OnRuleFired = recordFirings(&interpFired)

	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 7, 7, 0, 1, 0, 0, 0})
	f.Add([]byte{2, 27, 36, 0, 0, 5, 63, 2, 12, 1, 1, 200})
	f.Add([]byte{3, 9, 10, 11, 1, 2, 3, 60, 17, 4, 30, 1, 0, 99})
	f.Add([]byte{1, 20, 2, 1, 12, 52, 1, 5, 0, 1, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		fb := &fuzzBytes{data: data}
		fs := fault.NewSet()
		for i, n := 0, fb.intn(4); i < n; i++ {
			fs.FailNode(topology.NodeID(fb.intn(m.Nodes())))
		}
		for i, n := 0, fb.intn(3); i < n; i++ {
			a := topology.NodeID(fb.intn(m.Nodes()))
			p := fb.intn(topology.MeshPorts)
			if b := m.Neighbor(a, p); b != topology.Invalid {
				fs.FailLink(a, b)
			}
		}
		fast.UpdateFaults(fs)
		interp.UpdateFaults(fs)

		src := topology.NodeID(fb.intn(m.Nodes()))
		dst := topology.NodeID(fb.intn(m.Nodes()))
		if src == dst || fs.NodeFaulty(src) || fs.NodeFaulty(dst) {
			return
		}
		hdr := routing.Header{
			Src: src, Dst: dst,
			Length:    2 + fb.intn(30),
			Misroutes: fb.intn(80),
			Marked:    fb.intn(2) == 1,
			VNet:      fb.intn(2),
		}
		inPort := routing.InjectionPort
		if v := fb.intn(topology.MeshPorts + 1); v < topology.MeshPorts {
			inPort = v
		}
		hdr2 := hdr
		reqF := routing.Request{Node: src, InPort: inPort, InVC: fb.intn(2), Hdr: &hdr}
		reqI := reqF
		reqI.Hdr = &hdr2
		fastFired, interpFired = fastFired[:0], interpFired[:0]
		a := fast.RouteAppend(reqF, nil)
		b := interp.RouteAppend(reqI, nil)
		if !sameCands(a, b) {
			t.Fatalf("candidates diverged: fast %v vs interpreted %v (req %+v hdr %+v)", a, b, reqF, hdr)
		}
		if !sameFirings(fastFired, interpFired) {
			t.Fatalf("fired rules diverged: %v vs %v (req %+v hdr %+v)", fastFired, interpFired, reqF, hdr)
		}
		// The words both paths were fed come from the per-node fact
		// records; hold them to the per-call derivation for this header
		// (no hop has been applied: hdr is as routed).
		w := fast.native.FactWords(reqF)
		var avail, avfault, misok uint8
		for p, pf := range fast.native.PortFacts(reqF) {
			if !pf.Usable {
				continue
			}
			avail |= 1 << uint(p)
			if pf.Sideways && pf.EntryMinimal {
				avfault |= 1 << uint(p)
			}
			if pf.Sideways && pf.EntryMisroute {
				misok |= 1 << uint(p)
			}
		}
		if w.Avail != avail || w.AvFault != avfault || w.MisOK != misok || w.VNet != fast.native.VNetOf(reqF) {
			t.Fatalf("fact words %+v, PortFacts give avail %04b avfault %04b misok %04b vnet %d (faults %v req %+v hdr %+v)",
				w, avail, avfault, misok, fast.native.VNetOf(reqF), fs, reqF, hdr)
		}
	})
}

// FuzzMazeFastPath mutates a fault set plus one maze routing request —
// including the face-routing traversal state carried in the header —
// and asserts that the dense fast path and the interpreted reference
// path select identical fired rules and identical candidates on mesh,
// torus and irregular graphs.
func FuzzMazeFastPath(f *testing.F) {
	type lane struct {
		g            topology.Graph
		fast, interp *RuleMaze
		epoch        uint32
	}
	var lanes []*lane
	irr, err := topology.RandomIrregular(20, 8, 3)
	if err != nil {
		f.Fatal(err)
	}
	if irr.Ports() > routing.MazeMaxPorts {
		f.Fatalf("irregular test graph drew degree %d > %d; pick another seed", irr.Ports(), routing.MazeMaxPorts)
	}
	for _, g := range []topology.Graph{topology.NewMesh(6, 6), topology.NewTorus(6, 5), irr} {
		fast, err := NewRuleMaze(g)
		if err != nil {
			f.Fatal(err)
		}
		interp, err := NewRuleMaze(g)
		if err != nil {
			f.Fatal(err)
		}
		interp.DisableFast = true
		lanes = append(lanes, &lane{g: g, fast: fast, interp: interp})
	}
	var fastFired, interpFired []firing
	for _, l := range lanes {
		l.fast.OnRuleFired = recordFirings(&fastFired)
		l.interp.OnRuleFired = recordFirings(&interpFired)
	}

	f.Add([]byte{})
	f.Add([]byte{0, 2, 10, 20, 0, 0, 30, 1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 7, 3, 14, 2, 28, 1, 1, 5, 2, 9, 40, 1})
	f.Add([]byte{2, 0, 3, 0, 0, 19, 4, 2, 0, 11, 3, 6, 0, 0})
	f.Add([]byte{0, 3, 35, 1, 2, 3, 1, 2, 1, 8, 4, 3, 250, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		fb := &fuzzBytes{data: data}
		l := lanes[fb.intn(len(lanes))]
		g := l.g
		fs := fault.NewSet()
		for i, n := 0, fb.intn(5); i < n; i++ {
			fs.FailNode(topology.NodeID(fb.intn(g.Nodes())))
		}
		for i, n := 0, fb.intn(4); i < n; i++ {
			a := topology.NodeID(fb.intn(g.Nodes()))
			p := fb.intn(g.Ports())
			if b := g.Neighbor(a, p); b != topology.Invalid {
				fs.FailLink(a, b)
			}
		}
		l.fast.UpdateFaults(fs)
		l.interp.UpdateFaults(fs)
		l.epoch++

		src := topology.NodeID(fb.intn(g.Nodes()))
		dst := topology.NodeID(fb.intn(g.Nodes()))
		if src == dst || fs.NodeFaulty(src) || fs.NodeFaulty(dst) {
			return
		}
		hdr := routing.Header{
			Src: src, Dst: dst,
			Length:        2 + fb.intn(12),
			Phase:         fb.intn(2),
			MazeMode:      fb.intn(3),
			MazeStart:     topology.NodeID(fb.intn(g.Nodes())),
			MazeStartPort: fb.intn(g.Ports() + 1),
			MazeSteps:     int(fb.next()) * 2, // crosses the hop budget
			MazeEpoch:     l.epoch,
		}
		if fb.intn(2) == 1 && l.epoch > 0 {
			hdr.MazeEpoch = l.epoch - 1 // stale traversal/escape state
		}
		inPort := routing.InjectionPort
		if v := fb.intn(g.Ports() + 1); v < g.Ports() {
			inPort = v
		}
		hdr2 := hdr
		reqF := routing.Request{Node: src, InPort: inPort, InVC: fb.intn(2), Hdr: &hdr}
		reqI := reqF
		reqI.Hdr = &hdr2
		fastFired, interpFired = fastFired[:0], interpFired[:0]
		a := l.fast.RouteAppend(reqF, nil)
		b := l.interp.RouteAppend(reqI, nil)
		if !sameCands(a, b) {
			t.Fatalf("%s: candidates diverged: fast %v vs interpreted %v (req %+v hdr %+v)", g.Name(), a, b, reqF, hdr)
		}
		if !sameFirings(fastFired, interpFired) {
			t.Fatalf("%s: fired rules diverged: %v vs %v (req %+v hdr %+v)", g.Name(), fastFired, interpFired, reqF, hdr)
		}
		if l.fast.UnreachableVerdict(reqF) != l.interp.UnreachableVerdict(reqI) {
			t.Fatalf("%s: verdicts diverged (req %+v)", g.Name(), reqF)
		}
	})
}

func FuzzRuleRouteCDifferential(f *testing.F) {
	h := topology.NewHypercube(4)
	fast, err := NewRuleRouteC(h)
	if err != nil {
		f.Fatal(err)
	}
	interp, err := NewRuleRouteC(h)
	if err != nil {
		f.Fatal(err)
	}
	interp.DisableFast = true
	var fastFired, interpFired []firing
	fast.OnRuleFired = recordFirings(&fastFired)
	interp.OnRuleFired = recordFirings(&interpFired)

	f.Add([]byte{})
	f.Add([]byte{0, 0, 15, 1, 0, 0})
	f.Add([]byte{2, 3, 9, 1, 2, 1, 7, 8, 1, 3, 2})
	f.Add([]byte{1, 12, 2, 0, 5, 0, 10, 0, 1, 4})
	// Beyond the minimal modes: bump_safe, bump at level 3 (blocked),
	// detour_safe around a dead link, the same at level 3 (blocked),
	// bump_any, and up_any / down_any on the last level.
	f.Add([]byte{0, 0, 0, 15, 0, 1, 1, 4})
	f.Add([]byte{0, 0, 0, 15, 0, 1, 3, 4})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 4})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 3, 4})
	f.Add([]byte{2, 11, 9, 15, 8, 13, 0, 12, 3, 5, 6, 7})
	f.Add([]byte{4, 13, 3, 5, 15, 4, 7, 15, 0, 3, 11, 11})
	f.Add([]byte{7, 8, 13, 0, 7, 4, 10, 12, 7, 8, 11, 10})

	f.Fuzz(func(t *testing.T, data []byte) {
		fb := &fuzzBytes{data: data}
		fs := fault.NewSet()
		for i, n := 0, fb.intn(3); i < n; i++ {
			fs.FailNode(topology.NodeID(fb.intn(h.Nodes())))
		}
		for i, n := 0, fb.intn(2); i < n; i++ {
			a := topology.NodeID(fb.intn(h.Nodes()))
			d := fb.intn(h.Dim)
			if b := h.Neighbor(a, d); b != topology.Invalid {
				fs.FailLink(a, b)
			}
		}
		fast.UpdateFaults(fs)
		interp.UpdateFaults(fs)

		src := topology.NodeID(fb.intn(h.Nodes()))
		dst := topology.NodeID(fb.intn(h.Nodes()))
		if src == dst || fs.NodeFaulty(src) || fs.NodeFaulty(dst) {
			return
		}
		hdr := routing.Header{
			Src: src, Dst: dst, Length: 2 + fb.intn(12),
			Phase:       fb.intn(2),
			DetourLevel: fb.intn(5),
		}
		inPort := routing.InjectionPort
		if v := fb.intn(h.Dim + 1); v < h.Dim {
			inPort = v
		}
		hdr2 := hdr
		reqF := routing.Request{Node: src, InPort: inPort, Hdr: &hdr}
		reqI := reqF
		reqI.Hdr = &hdr2
		fastFired, interpFired = fastFired[:0], interpFired[:0]
		a := fast.RouteAppend(reqF, nil)
		b := interp.RouteAppend(reqI, nil)
		if !sameCands(a, b) {
			t.Fatalf("candidates diverged: fast %v vs interpreted %v (req %+v hdr %+v)", a, b, reqF, hdr)
		}
		if !sameFirings(fastFired, interpFired) {
			t.Fatalf("fired rules diverged: %v vs %v (req %+v hdr %+v)", fastFired, interpFired, reqF, hdr)
		}
	})
}
