package fleet

import "testing"

func TestOwner(t *testing.T) {
	for _, tc := range []struct {
		node, replicas, want int
	}{
		{0, 1, 0}, {17, 1, 0}, {5, 0, 0}, {9, -2, 0},
		{0, 3, 0}, {1, 3, 1}, {2, 3, 2}, {3, 3, 0}, {64, 3, 1},
		{-1, 3, 0}, {-4, 3, 0}, // never a negative index: the client scatters by it
	} {
		if got := Owner(tc.node, tc.replicas); got != tc.want {
			t.Errorf("Owner(%d,%d) = %d, want %d", tc.node, tc.replicas, got, tc.want)
		}
	}
}

func TestShardOwnsPartition(t *testing.T) {
	// Every node is owned by exactly one of the N shards.
	const n, nodes = 3, 64
	for node := 0; node < nodes; node++ {
		owners := 0
		for i := 0; i < n; i++ {
			if (ShardInfo{Index: i, Count: n}).Owns(node) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("node %d owned by %d shards", node, owners)
		}
	}
}

func TestParseShard(t *testing.T) {
	s, err := ParseShard("")
	if err != nil || s != Single {
		t.Fatalf("empty spec: %v %v", s, err)
	}
	s, err = ParseShard("2/5")
	if err != nil || s.Index != 2 || s.Count != 5 {
		t.Fatalf("2/5: %v %v", s, err)
	}
	if s.String() != "2/5" {
		t.Fatalf("String() = %q", s.String())
	}
	for _, bad := range []string{"x", "3", "3/2", "-1/4", "2/-3", "a/b"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}
