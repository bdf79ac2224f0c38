package fleet

import (
	"fmt"
	"strings"
)

// ShardInfo identifies one replica's slice of the topology in an
// N-replica fleet: replica Index owns every node with node % Count ==
// Index. Modulo ownership needs no node count to agree on — the client
// and every replica derive the same owner from the replica count alone
// — and it spreads neighbouring nodes over distinct replicas, so a
// scattered batch of local traffic still fans out.
type ShardInfo struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Single is the degenerate shard: one replica owning every node.
var Single = ShardInfo{Index: 0, Count: 1}

// Owner returns the replica index owning node in a replicas-wide
// fleet. A negative node is no node of any topology; it goes to
// replica 0, which answers it with the out-of-range error.
func Owner(node, replicas int) int {
	if replicas <= 1 || node < 0 {
		return 0
	}
	return node % replicas
}

// Owns reports whether this replica owns node.
func (s ShardInfo) Owns(node int) bool {
	return Owner(node, s.Count) == s.Index
}

// Valid reports a well-formed shard spec.
func (s ShardInfo) Valid() bool {
	return s.Count >= 1 && s.Index >= 0 && s.Index < s.Count
}

// String renders the canonical "index/count" form.
func (s ShardInfo) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// ParseShard parses an "index/count" shard spec, e.g. "0/3". The
// empty string is the single-replica shard.
func ParseShard(spec string) (ShardInfo, error) {
	if spec == "" {
		return Single, nil
	}
	var s ShardInfo
	if _, err := fmt.Sscanf(strings.TrimSpace(spec), "%d/%d", &s.Index, &s.Count); err != nil {
		return s, fmt.Errorf("bad shard spec %q (want index/count, e.g. 0/3)", spec)
	}
	if !s.Valid() {
		return s, fmt.Errorf("bad shard spec %q: index must be in [0,%d)", spec, s.Count)
	}
	return s, nil
}
