package failover

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/metrics"
	"repro/internal/reconfig"
	"repro/internal/topology"
)

// BundleFormatVersion is the current bundle format revision.
const BundleFormatVersion = 1

// bundleMagic leads every encoded bundle. Same framing as artifacts
// (reconfig.WriteFrame/ReadFrame), distinct magic so loaders can sniff
// which format a file carries.
var bundleMagic = []byte("ARONBDL\x01")

// Backup is one per-class backup descriptor inside a bundle: the fault
// class in plain-data form plus, optionally, its own compiled decision
// tables. Empty Bases means the class shares the primary's table bytes
// — the rule compiler's ARON tables are fault-independent (fault state
// enters each decision through the input slots the dense compiler
// binds, see DESIGN.md), so today every backup inherits; the field
// exists so a future compiler that specialises tables per class ships
// them without a format change. The precompute value of a backup is
// realised at bundle-load time: the plane constructs the engine
// (core.CompileDense runs inside adapter construction) and applies the
// class's fault set to its diagnosis fixpoint, so nothing remains to
// compute when the fault is observed.
type Backup struct {
	Kind  string
	Nodes []int
	Links [][2]int
	Bases []reconfig.BaseTable
}

// Class returns the backup's fault class.
func (b *Backup) Class() Class {
	c := Class{Kind: b.Kind}
	for _, n := range b.Nodes {
		c.Nodes = append(c.Nodes, topology.NodeID(n))
	}
	for _, l := range b.Links {
		c.Links = append(c.Links, topology.MakeLink(topology.NodeID(l[0]), topology.NodeID(l[1])))
	}
	return c
}

// Bundle is a failover table bundle: the primary rule-table artifact
// plus the anticipated fault classes it carries backups for. The
// topology fields pin the enumeration target — a backup for node 37 of
// an 8x8 mesh is meaningless on a 6x6 — and loaders refuse a topology
// mismatch.
type Bundle struct {
	FormatVersion int
	// MeshW/MeshH (nafta, maze-on-mesh), TorusW/TorusH or
	// IrrNodes/IrrExtra/IrrSeed (maze), or the primary's CubeDim
	// (routec) name the topology the classes were enumerated on. The
	// maze fields are zero in pre-maze bundles, so their checksums are
	// unchanged (gob omits zero fields).
	MeshW, MeshH       int
	TorusW, TorusH     int
	IrrNodes, IrrExtra int
	IrrSeed            int64
	Primary            reconfig.Artifact
	Backups            []Backup

	// sum is the payload checksum, remembered by Encode/DecodeBundle.
	sum [sha256.Size]byte
}

// BuildBundle enumerates the classes of the given kinds on g and packs
// them with the primary artifact. Duplicate class keys collapse to the
// first kind that produced them (a length-1 chain is the same fault
// set as the single west-border link).
func BuildBundle(art *reconfig.Artifact, g topology.Graph, kinds []string) (*Bundle, error) {
	if err := art.Validate(); err != nil {
		return nil, err
	}
	b := &Bundle{FormatVersion: BundleFormatVersion, Primary: *art}
	switch t := g.(type) {
	case *topology.Mesh:
		if art.Algorithm != "nafta" {
			return nil, fmt.Errorf("failover: %s artifact cannot bundle mesh classes", art.Algorithm)
		}
		b.MeshW, b.MeshH = t.W, t.H
	case *topology.Hypercube:
		if art.Algorithm != "routec" {
			return nil, fmt.Errorf("failover: %s artifact cannot bundle hypercube classes", art.Algorithm)
		}
		if art.CubeDim != t.Dim {
			return nil, fmt.Errorf("failover: artifact compiled for a %d-cube, classes enumerated on a %d-cube", art.CubeDim, t.Dim)
		}
	default:
		return nil, fmt.Errorf("failover: unsupported bundle topology %T", g)
	}
	classes, err := Enumerate(g, kinds)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, c := range classes {
		key := c.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		bk := Backup{Kind: c.Kind}
		for _, n := range c.Nodes {
			bk.Nodes = append(bk.Nodes, int(n))
		}
		for _, l := range c.Links {
			bk.Links = append(bk.Links, [2]int{int(l.A), int(l.B)})
		}
		b.Backups = append(b.Backups, bk)
	}
	return b, nil
}

// Graph rebuilds the topology the bundle's classes were enumerated on.
func (b *Bundle) Graph() (topology.Graph, error) {
	switch b.Primary.Algorithm {
	case "nafta":
		if b.MeshW < 2 || b.MeshH < 2 {
			return nil, fmt.Errorf("failover: bundle names bad mesh %dx%d", b.MeshW, b.MeshH)
		}
		return topology.NewMesh(b.MeshW, b.MeshH), nil
	case "routec":
		if b.Primary.CubeDim < 1 || b.Primary.CubeDim > 20 {
			return nil, fmt.Errorf("failover: bundle names bad hypercube dimension %d", b.Primary.CubeDim)
		}
		return topology.NewHypercube(b.Primary.CubeDim), nil
	case "maze":
		switch {
		case b.TorusW >= 3 && b.TorusH >= 3:
			return topology.NewTorus(b.TorusW, b.TorusH), nil
		case b.IrrNodes > 0:
			return topology.RandomIrregular(b.IrrNodes, b.IrrExtra, b.IrrSeed)
		case b.MeshW >= 2 && b.MeshH >= 2:
			return topology.NewMesh(b.MeshW, b.MeshH), nil
		}
		return nil, fmt.Errorf("failover: maze bundle names no topology")
	}
	return nil, fmt.Errorf("failover: bundle names unknown algorithm %q", b.Primary.Algorithm)
}

// MatchGraph reports an error unless g is the topology the bundle's
// classes were enumerated on: the same nodes and, behind every port,
// the same neighbour. A name does not tell two irregular graphs of
// different seeds apart.
func (b *Bundle) MatchGraph(g topology.Graph) error {
	want, err := b.Graph()
	if err != nil {
		return err
	}
	same := want.Nodes() == g.Nodes() && want.Ports() == g.Ports()
	for n := topology.NodeID(0); same && int(n) < g.Nodes(); n++ {
		for p := 0; same && p < g.Ports(); p++ {
			same = want.Neighbor(n, p) == g.Neighbor(n, p)
		}
	}
	if !same {
		return fmt.Errorf("failover: bundle enumerated on %s, not on this %s", want.Name(), g.Name())
	}
	return nil
}

// Validate performs the structural checks shared by every loader.
func (b *Bundle) Validate() error {
	if b.FormatVersion != BundleFormatVersion {
		return fmt.Errorf("failover: bundle format v%d, this build reads v%d", b.FormatVersion, BundleFormatVersion)
	}
	if err := b.Primary.Validate(); err != nil {
		return err
	}
	if _, err := b.Graph(); err != nil {
		return err
	}
	for i := range b.Backups {
		bk := &b.Backups[i]
		if !ValidKind(bk.Kind) {
			return fmt.Errorf("failover: backup %d has unknown kind %q (valid: %s)", i, bk.Kind, strings.Join(Kinds, ", "))
		}
		if len(bk.Nodes) == 0 && len(bk.Links) == 0 {
			return fmt.Errorf("failover: backup %d (%s) is empty", i, bk.Kind)
		}
	}
	return nil
}

// payload renders the gob payload the checksum covers.
func (b *Bundle) payload() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		return nil, fmt.Errorf("failover: encoding bundle: %w", err)
	}
	return buf.Bytes(), nil
}

// Encode writes the framed bundle (magic, length, gob payload,
// SHA-256), reusing the artifact framing under the bundle magic.
func (b *Bundle) Encode(w io.Writer) error {
	payload, err := b.payload()
	if err != nil {
		return err
	}
	b.sum, err = reconfig.WriteFrame(w, bundleMagic, payload)
	return err
}

// DecodeBundle reads a framed bundle, verifying magic, length and
// checksum.
func DecodeBundle(r io.Reader) (*Bundle, error) {
	payload, sum, err := reconfig.ReadFrame(r, bundleMagic, "bundle")
	if err != nil {
		return nil, err
	}
	b := &Bundle{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(b); err != nil {
		return nil, fmt.Errorf("failover: decoding bundle: %w", err)
	}
	if b.FormatVersion != BundleFormatVersion {
		return nil, fmt.Errorf("failover: bundle format v%d, this build reads v%d", b.FormatVersion, BundleFormatVersion)
	}
	b.sum = sum
	return b, nil
}

// IsBundle reports whether data begins with the bundle magic.
func IsBundle(data []byte) bool { return bytes.HasPrefix(data, bundleMagic) }

// DecodeAny decodes data as a bundle when it carries the bundle magic
// and as a bare artifact otherwise — the sniffing loaders (routerd's
// -artifact flag and /reload body) share.
func DecodeAny(data []byte) (*reconfig.Artifact, *Bundle, error) {
	if IsBundle(data) {
		b, err := DecodeBundle(bytes.NewReader(data))
		if err != nil {
			return nil, nil, err
		}
		return &b.Primary, b, nil
	}
	art, err := reconfig.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	return art, nil, nil
}

// LoadPath reads path and decodes it as a bundle or a bare artifact.
func LoadPath(path string) (*reconfig.Artifact, *Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return DecodeAny(data)
}

// Checksum returns the hex SHA-256 of the bundle payload (computing it
// if the bundle has not been encoded or decoded yet).
func (b *Bundle) Checksum() (string, error) {
	if b.sum == ([sha256.Size]byte{}) {
		payload, err := b.payload()
		if err != nil {
			return "", err
		}
		b.sum = sha256.Sum256(payload)
	}
	return hex.EncodeToString(b.sum[:]), nil
}

// Summary renders the human-readable bundle dump: the primary
// artifact's summary plus one row per class kind.
func (b *Bundle) Summary() (string, error) {
	prim, err := b.Primary.Summary()
	if err != nil {
		return "", err
	}
	sum, err := b.Checksum()
	if err != nil {
		return "", err
	}
	g, err := b.Graph()
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	out.WriteString(prim)
	fmt.Fprintf(&out, "bundle:   %d backup classes on %s\n", len(b.Backups), g.Name())
	fmt.Fprintf(&out, "checksum: sha256:%s\n", sum)
	counts := map[string]int{}
	for i := range b.Backups {
		counts[b.Backups[i].Kind]++
	}
	tb := metrics.NewTable("backup classes", "kind", "classes")
	for _, k := range Kinds {
		if counts[k] > 0 {
			tb.AddRow(k, counts[k])
		}
	}
	out.WriteString(tb.String())
	return out.String(), nil
}
