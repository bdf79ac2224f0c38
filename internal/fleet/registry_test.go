package fleet

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

func buildArt(t *testing.T, algo string, epoch uint64, g topology.Graph) *reconfig.Artifact {
	t.Helper()
	opts := reconfig.BuildOptions{Epoch: epoch}
	if algo == "maze" {
		opts.Ports = g.Ports()
	}
	art, err := reconfig.Build(algo, opts)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func testRegistry(t *testing.T) (*Registry, topology.Graph) {
	t.Helper()
	g := topology.NewMesh(5, 4)
	r, err := NewRegistry(buildArt(t, "nafta", 1, g), g, RegistryOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return r, g
}

func injectReq(src, dst int) reconfig.DecisionRequest {
	return reconfig.DecisionRequest{Node: src, InPort: routing.InjectionPort, Src: src, Dst: dst, Length: 4}
}

func TestRegistryPushDoesNotServe(t *testing.T) {
	r, g := testRegistry(t)
	v, err := r.Push(buildArt(t, "maze", 5, g))
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 2 || v.Algorithm != "maze" {
		t.Fatalf("pushed version %+v", v)
	}
	if r.Serving() != 1 {
		t.Fatalf("push changed the serving version to %d", r.Serving())
	}
	if r.Epoch() != 1 {
		t.Fatalf("push advanced the epoch to %d", r.Epoch())
	}
}

func TestRegistryPushRejectsUnbindableArtifact(t *testing.T) {
	r, _ := testRegistry(t)
	// An 8-port maze program cannot bind on a 4-port mesh.
	art, err := reconfig.Build("maze", reconfig.BuildOptions{Epoch: 2, Ports: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Push(art); err == nil {
		t.Fatal("unbindable artifact accepted")
	}
	if len(r.VersionIDs()) != 1 {
		t.Fatalf("failed push still registered a version: %v", r.VersionIDs())
	}
}

func TestCanarySameAlgorithmZeroDivergence(t *testing.T) {
	r, g := testRegistry(t)
	v, err := r.Push(buildArt(t, "nafta", 2, g))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.StartCanary(v.ID, 1.0); err != nil {
		t.Fatal(err)
	}
	// Fault-free, then with node 7 failed under the running canary: a
	// fault event must reach the candidate's engines too.
	for _, failed := range []bool{false, true} {
		if failed {
			f := fault.NewSet()
			f.FailNode(7)
			r.UpdateFaults(f)
		}
		for src := 0; src < g.Nodes(); src++ {
			for dst := 0; dst < g.Nodes(); dst++ {
				if src == dst {
					continue
				}
				req := injectReq(src, dst)
				if _, _, err := r.Decide(&req, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	st := r.Canary()
	if st == nil || st.Sampled == 0 {
		t.Fatalf("fraction-1.0 canary sampled nothing: %+v", st)
	}
	if st.Diverged != 0 {
		t.Fatalf("same-algorithm canary diverged %d/%d: %+v", st.Diverged, st.Sampled, st.Examples)
	}
}

func TestCanaryDivergentAlgorithmObservedNotServed(t *testing.T) {
	r, g := testRegistry(t)
	// A maze candidate routes differently from the nafta incumbent: the
	// diff must see it, the served answers must not.
	v, err := r.Push(buildArt(t, "maze", 2, g))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.StartCanary(v.ID, 1.0); err != nil {
		t.Fatal(err)
	}
	incumbent, err := reconfig.NewService(buildArt(t, "nafta", 1, g), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < g.Nodes(); src++ {
		req := injectReq(src, (src+5)%g.Nodes())
		if req.Src == req.Dst {
			continue
		}
		got, _, err := r.Decide(&req, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := incumbent.Decide(&req, nil)
		if !candidatesEqual(got, want) {
			t.Fatalf("canaried decision leaked the candidate's answer: %+v vs %+v", got, want)
		}
	}
	st := r.Canary()
	if st.Diverged == 0 {
		t.Fatal("maze-vs-nafta canary observed no divergence — the diff is blind")
	}
	if len(st.Examples) == 0 {
		t.Fatal("divergence recorded no examples")
	}
	if st.Examples[0].Incumbent == nil && st.Examples[0].Candidate == nil {
		t.Fatalf("empty divergence example: %+v", st.Examples[0])
	}
}

func TestCanaryFractionValidation(t *testing.T) {
	r, g := testRegistry(t)
	v, _ := r.Push(buildArt(t, "nafta", 2, g))
	for _, f := range []float64{0, -0.5, 1.5} {
		if err := r.StartCanary(v.ID, f); err == nil {
			t.Fatalf("fraction %g accepted", f)
		}
	}
	if err := r.StartCanary(99, 0.5); err == nil || !strings.Contains(err.Error(), "unknown version") {
		t.Fatalf("unknown version error: %v", err)
	}
}

func TestCanaryFractionSampling(t *testing.T) {
	r, g := testRegistry(t)
	v, _ := r.Push(buildArt(t, "nafta", 2, g))
	if err := r.StartCanary(v.ID, 0.1); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		req := injectReq(i%g.Nodes(), (i+3)%g.Nodes())
		if req.Src == req.Dst {
			continue
		}
		if _, _, err := r.Decide(&req, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Canary()
	// Bresenham sampling: a 10% canary over ~1000 decisions samples
	// ~100, exactly evenly — allow slack for the skipped src==dst.
	if st.Sampled < 80 || st.Sampled > 120 {
		t.Fatalf("0.1 canary sampled %d of ~%d", st.Sampled, n)
	}
}

func TestPromoteRollbackCycle(t *testing.T) {
	r, g := testRegistry(t)
	if _, err := r.Promote(); err == nil {
		t.Fatal("promote without a canary accepted")
	}
	if _, err := r.Rollback(); err == nil {
		t.Fatal("rollback with no history accepted")
	}

	v, err := r.Push(buildArt(t, "maze", 2, g))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.StartCanary(v.ID, 0.5); err != nil {
		t.Fatal(err)
	}
	epoch, err := r.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || r.Serving() != 2 {
		t.Fatalf("after promote: epoch %d serving v%d", epoch, r.Serving())
	}
	if r.Canary() != nil {
		t.Fatal("promote left the canary running")
	}
	// The promoted tables must actually serve (maze answers now).
	mazeRef, _ := reconfig.NewService(buildArt(t, "maze", 2, g), g, 1)
	req := injectReq(0, 9)
	got, _, err := r.Decide(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := mazeRef.Decide(&req, nil)
	if !candidatesEqual(got, want) {
		t.Fatalf("promoted registry answers %+v, maze reference %+v", got, want)
	}

	epoch, err = r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if r.Serving() != 1 {
		t.Fatalf("rollback serves v%d, want v1", r.Serving())
	}
	if epoch <= 2 {
		t.Fatalf("rollback must advance the epoch (got %d)", epoch)
	}
	naftaRef, _ := reconfig.NewService(buildArt(t, "nafta", 1, g), g, 1)
	got, _, err = r.Decide(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ = naftaRef.Decide(&req, nil)
	if !candidatesEqual(got, want) {
		t.Fatalf("rolled-back registry answers %+v, nafta reference %+v", got, want)
	}

	// Rollback toggles: a second rollback returns to the maze version.
	if _, err := r.Rollback(); err != nil {
		t.Fatal(err)
	}
	if r.Serving() != 2 {
		t.Fatalf("second rollback serves v%d, want v2", r.Serving())
	}
}

func TestPromoteCarriesLiveFaults(t *testing.T) {
	r, g := testRegistry(t)
	f := fault.NewSet()
	f.FailNode(7)
	r.UpdateFaults(f)

	v, _ := r.Push(buildArt(t, "nafta", 2, g))
	if err := r.StartCanary(v.ID, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote(); err != nil {
		t.Fatal(err)
	}
	// The freshly promoted engines must already know node 7 is dead:
	// no candidate from node 6 may route into it.
	req := injectReq(6, 8)
	cands, _, err := r.Decide(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Port >= 0 && g.Neighbor(6, c.Port) == 7 {
			t.Fatal("promoted engines route into the failed node: fault state lost across activation")
		}
	}
}

// TestRegistryFaultsInvalidateCache: a decision repeated across a
// fault event is answered from the new fault state — every served
// decision equals a recompute under the faults of its moment, and none
// after the fault routes into the failed node.
func TestRegistryFaultsInvalidateCache(t *testing.T) {
	r, g := testRegistry(t)
	req := injectReq(6, 8)
	ref, err := reconfig.NewService(buildArt(t, "nafta", 1, g), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		requireServes(t, "fault-free", r, g, ref)
	}

	f := fault.NewSet()
	f.FailNode(7)
	r.UpdateFaults(f)
	ref.UpdateFaults(f)
	requireServes(t, "node 7 failed", r, g, ref)

	after, _, err := r.Decide(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range after {
		if c.Port >= 0 && g.Neighbor(6, c.Port) == 7 {
			t.Fatalf("fault-free answer served after the fault: %+v", after)
		}
	}
}

func TestRegistryStatus(t *testing.T) {
	r, g := testRegistry(t)
	v, _ := r.Push(buildArt(t, "maze", 2, g))
	r.StartCanary(v.ID, 0.25)
	st := r.Status()
	if st.Serving != 1 || len(st.Versions) != 2 {
		t.Fatalf("status %+v", st)
	}
	if st.Canary == nil || st.Canary.Version != 2 || st.Canary.Fraction != 0.25 {
		t.Fatalf("canary status %+v", st.Canary)
	}
	if st.Versions[0].Checksum == "" || st.Versions[1].Checksum == "" {
		t.Fatal("versions carry no checksums")
	}
	if !r.StopCanary() {
		t.Fatal("stop reported no canary")
	}
	if r.Canary() != nil {
		t.Fatal("canary survived stop")
	}
}

// requireServes holds every injection decision r serves to the
// decision of ref, a from-scratch service that knows the same faults.
func requireServes(t *testing.T, label string, r *Registry, g topology.Graph, ref *reconfig.Service) {
	t.Helper()
	for src := 0; src < g.Nodes(); src++ {
		for dst := 0; dst < g.Nodes(); dst++ {
			if src == dst {
				continue
			}
			req := injectReq(src, dst)
			got, _, err := r.Decide(&req, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := ref.Decide(&req, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !candidatesEqual(got, want) {
				t.Fatalf("%s: %d->%d served %+v, recompute %+v", label, src, dst, got, want)
			}
		}
	}
}

// recompute builds a from-scratch service from art that knows f.
func recompute(t *testing.T, art *reconfig.Artifact, g topology.Graph, f *fault.Set) *reconfig.Service {
	t.Helper()
	ref, err := reconfig.NewService(art, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref.UpdateFaults(f)
	return ref
}

// TestFaultAfterActivationServesServingVersion activates another
// version — by reload, by canary and promote, and by rollback — then
// fails a node. Every decision served afterwards must equal a recompute
// from the artifact now serving under that fault, and the fault must
// leave the epoch where the activation put it.
func TestFaultAfterActivationServesServingVersion(t *testing.T) {
	g := topology.NewMesh(5, 4)
	nafta := buildArt(t, "nafta", 1, g)
	maze := buildArt(t, "maze", 2, g)
	rows := []struct {
		name     string
		activate func(r *Registry) error
		serving  *reconfig.Artifact
	}{
		{"reload", func(r *Registry) error {
			_, err := r.Reload(maze)
			return err
		}, maze},
		{"promote", func(r *Registry) error {
			v, err := r.Push(maze)
			if err != nil {
				return err
			}
			if err := r.StartCanary(v.ID, 0.5); err != nil {
				return err
			}
			_, err = r.Promote()
			return err
		}, maze},
		{"rollback", func(r *Registry) error {
			if _, err := r.Reload(maze); err != nil {
				return err
			}
			_, err := r.Rollback()
			return err
		}, nafta},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r, err := NewRegistry(nafta, g, RegistryOptions{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := row.activate(r); err != nil {
				t.Fatal(err)
			}
			epoch := r.Epoch()
			f := fault.NewSet()
			f.FailNode(7)
			r.UpdateFaults(f)
			if r.Epoch() != epoch {
				t.Fatalf("the fault moved the epoch from %d to %d", epoch, r.Epoch())
			}
			requireServes(t, row.name, r, g, recompute(t, row.serving, g, f))
		})
	}
}

// TestFaultRacesRollback races a fault event against a rollback on one
// registry, round after round, and then holds every served injection
// decision to a from-scratch recompute under the round's fault set.
// Both sides take the registry lock: a rollback that goes first
// reloads, and the fault then recomputes on the engines it installed;
// a rollback that goes second reloads engines that already know the
// fault, because the service records it in the recompute's own
// critical section.
func TestFaultRacesRollback(t *testing.T) {
	g := topology.NewMesh(5, 4)
	art := buildArt(t, "nafta", 1, g)
	r, err := NewRegistry(art, g, RegistryOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Push(buildArt(t, "nafta", 2, g))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.StartCanary(v.ID, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote(); err != nil {
		t.Fatal(err)
	}
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	for round := 0; round < rounds; round++ {
		node := topology.NodeID(round % g.Nodes())
		r.UpdateFaults(fault.NewSet())
		f := fault.NewSet()
		f.FailNode(node)
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			r.UpdateFaults(f)
		}()
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < round%7*50; i++ { // stagger the two sides
				runtime.Gosched()
			}
			if _, err := r.Rollback(); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()

		requireServes(t, fmt.Sprintf("round %d (node %d failed)", round, node), r, g, recompute(t, art, g, f))
	}
}
