// Package reconfig implements online rule-base reconfiguration — the
// capability the paper's title promises: routing algorithms are
// compiled off-line into tables that are loaded into the rule
// interpreter's RAM, so a deployed router can be re-programmed in the
// field without new hardware.
//
// The package has three layers:
//
//   - versioned table artifacts: a compiled rule program (source plus
//     the filled ARON tables of its decision bases) serialized into a
//     self-describing, checksummed file with a version epoch, produced
//     by `rulec -artifact` and loadable at runtime (Engine);
//   - an RCU-style Swapper that lets a *running* network replace its
//     decision engine mid-simulation: in-flight worms keep routing
//     under the table epoch that admitted them, new head flits use the
//     new tables, and a quiescence protocol retires an old epoch once
//     no pinned worm remains;
//   - a concurrent decision Service (behind cmd/routerd) that serves
//     single and batched route decisions from sharded per-worker
//     engines and atomically reloads artifacts under load.
package reconfig

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rulesets"
)

// FormatVersion is the current artifact format revision.
const FormatVersion = 1

// artifactMagic leads every encoded artifact; the trailing byte is the
// framing revision (independent of the gob payload's FormatVersion).
var artifactMagic = []byte("ARONTBL\x01")

// maxArtifactBytes bounds the declared payload length so a corrupt
// header cannot make Decode allocate unbounded memory.
const maxArtifactBytes = 64 << 20

// writeFrame writes one checksummed frame — magic, big-endian payload
// length, payload, SHA-256 of the payload — and returns the checksum.
func writeFrame(w io.Writer, payload []byte) (sum [sha256.Size]byte, err error) {
	sum = sha256.Sum256(payload)
	if _, err = w.Write(artifactMagic); err != nil {
		return sum, err
	}
	if err = binary.Write(w, binary.BigEndian, uint64(len(payload))); err != nil {
		return sum, err
	}
	if _, err = w.Write(payload); err != nil {
		return sum, err
	}
	_, err = w.Write(sum[:])
	return sum, err
}

// readFrame reads one frame written by writeFrame, verifying the
// magic, the payload length bound and the checksum.
func readFrame(r io.Reader) (payload []byte, sum [sha256.Size]byte, err error) {
	head := make([]byte, len(artifactMagic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, sum, fmt.Errorf("reconfig: reading artifact header: %w", err)
	}
	if !bytes.Equal(head, artifactMagic) {
		return nil, sum, fmt.Errorf("reconfig: not a rule-table artifact (bad magic)")
	}
	var n uint64
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return nil, sum, fmt.Errorf("reconfig: reading artifact length: %w", err)
	}
	if n > maxArtifactBytes {
		return nil, sum, fmt.Errorf("reconfig: artifact payload of %d bytes exceeds the %d byte bound", n, maxArtifactBytes)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, sum, fmt.Errorf("reconfig: reading artifact payload: %w", err)
	}
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, sum, fmt.Errorf("reconfig: reading artifact checksum: %w", err)
	}
	if got := sha256.Sum256(payload); got != sum {
		return nil, sum, fmt.Errorf("reconfig: artifact checksum mismatch (corrupted or truncated)")
	}
	return payload, sum, nil
}

// BaseTable is one serialized decision base: the name and the
// configuration data exactly as core.SaveConfig emits it — the same
// bytes `rulec -savecfg` writes, so the artifact cannot drift from the
// standalone configuration path.
type BaseTable struct {
	Name string
	Data []byte
}

// Artifact is a versioned, self-describing rule-table artifact: the
// full rule program source (the artifact can be audited and re-checked
// without the producing binary), the compiled tables of the decision
// bases, the deadlock-regime tag for the hot-swap safety gate and the
// version epoch the producer assigned.
type Artifact struct {
	FormatVersion int
	// Algorithm selects the adapter family: "nafta" or "routec".
	Algorithm string
	// Name is the human-readable program name (e.g. "NAFTA").
	Name string
	// Epoch is the producer-assigned table version. A Service reload
	// moves to max(current+1, Epoch), so monotonically versioned
	// artifacts keep their numbering while unversioned ones still
	// advance the epoch.
	Epoch uint64
	// Regime is the deadlock-regime tag of the engine (see
	// routing.RegimeOf); the swap safety gate compares it.
	Regime string
	// CubeDim and Adaptivity parameterise the routec program; both are
	// zero for nafta (whose program is topology-size independent).
	CubeDim    int
	Adaptivity int
	// Ports parameterises the maze program (generated per port count);
	// zero for the other families, so pre-maze artifact checksums are
	// unchanged (gob omits zero fields).
	Ports int
	// Source is the complete rule program.
	Source string
	// Bases holds the compiled decision tables, in decision order.
	Bases []BaseTable

	// sum is the payload checksum, remembered by Decode/Encode.
	sum [sha256.Size]byte
}

// BuildOptions parameterise Build.
type BuildOptions struct {
	// Epoch is the version stamp (default 1).
	Epoch uint64
	// CubeDim is the hypercube dimension for routec (default 4).
	CubeDim int
	// Adaptivity is routec's adaptivity width (default 2, the width
	// the simulator adapter implements).
	Adaptivity int
	// Ports is the port count the maze program is generated for
	// (default 4, the mesh/torus degree).
	Ports int
}

// Build compiles the builtin program of the given algorithm family
// ("maze", "nafta" or "routec") into an artifact.
func Build(algo string, opts BuildOptions) (*Artifact, error) {
	if opts.Epoch == 0 {
		opts.Epoch = 1
	}
	var (
		prog  *rulesets.Program
		bases []string
		err   error
	)
	art := &Artifact{
		FormatVersion: FormatVersion,
		Algorithm:     algo,
		Epoch:         opts.Epoch,
	}
	switch algo {
	case "nafta":
		prog, err = rulesets.LoadNAFTA()
		bases = rulesets.NAFTADecisionBases
		art.Regime = routingRegimeNAFTA
	case "routec":
		if opts.CubeDim == 0 {
			opts.CubeDim = 4
		}
		if opts.Adaptivity == 0 {
			opts.Adaptivity = 2
		}
		if opts.Adaptivity != 2 {
			return nil, fmt.Errorf("reconfig: the routec adapter implements adaptivity width 2, not %d", opts.Adaptivity)
		}
		prog, err = rulesets.LoadRouteC(opts.CubeDim, opts.Adaptivity)
		bases = rulesets.RouteCDecisionBases
		art.CubeDim, art.Adaptivity = opts.CubeDim, opts.Adaptivity
		art.Regime = routingRegimeRouteC
	case "maze":
		if opts.Ports == 0 {
			opts.Ports = 4
		}
		if opts.Ports < 2 || opts.Ports > mazeMaxPorts {
			return nil, fmt.Errorf("reconfig: maze supports 2 to %d ports, not %d", mazeMaxPorts, opts.Ports)
		}
		prog, err = rulesets.LoadMaze(opts.Ports)
		bases = rulesets.MazeDecisionBases
		art.Ports = opts.Ports
		art.Regime = routingRegimeMaze
	default:
		return nil, fmt.Errorf("reconfig: unknown algorithm %q (valid: maze, nafta, routec)", algo)
	}
	if err != nil {
		return nil, err
	}
	art.Name = prog.Name
	art.Source = prog.Source
	for _, name := range bases {
		cb, err := core.CompileBase(prog.Checked, name, core.CompileOptions{})
		if err != nil {
			return nil, fmt.Errorf("reconfig: compiling %s: %w", name, err)
		}
		var buf bytes.Buffer
		if err := cb.SaveConfig(&buf); err != nil {
			return nil, fmt.Errorf("reconfig: serializing %s: %w", name, err)
		}
		art.Bases = append(art.Bases, BaseTable{Name: name, Data: buf.Bytes()})
	}
	return art, nil
}

// payload renders the gob payload the checksum covers.
func (a *Artifact) payload() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(a); err != nil {
		return nil, fmt.Errorf("reconfig: encoding artifact: %w", err)
	}
	return buf.Bytes(), nil
}

// Encode writes the framed artifact: magic, payload length, gob
// payload, SHA-256 checksum of the payload.
func (a *Artifact) Encode(w io.Writer) error {
	payload, err := a.payload()
	if err != nil {
		return err
	}
	a.sum, err = writeFrame(w, payload)
	return err
}

// Decode reads a framed artifact, verifying magic, length and
// checksum.
func Decode(r io.Reader) (*Artifact, error) {
	payload, sum, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	a := &Artifact{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(a); err != nil {
		return nil, fmt.Errorf("reconfig: decoding artifact: %w", err)
	}
	if a.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("reconfig: artifact format v%d, this build reads v%d", a.FormatVersion, FormatVersion)
	}
	a.sum = sum
	return a, nil
}

// Checksum returns the hex SHA-256 of the artifact payload (computing
// it if the artifact has not been encoded or decoded yet).
func (a *Artifact) Checksum() (string, error) {
	if a.sum == ([sha256.Size]byte{}) {
		payload, err := a.payload()
		if err != nil {
			return "", err
		}
		a.sum = sha256.Sum256(payload)
	}
	return hex.EncodeToString(a.sum[:]), nil
}

// Validate performs the structural checks shared by every loader.
func (a *Artifact) Validate() error {
	if a.FormatVersion != FormatVersion {
		return fmt.Errorf("reconfig: artifact format v%d, this build reads v%d", a.FormatVersion, FormatVersion)
	}
	switch a.Algorithm {
	case "nafta", "routec", "maze":
	default:
		return fmt.Errorf("reconfig: artifact names unknown algorithm %q", a.Algorithm)
	}
	if a.Source == "" {
		return fmt.Errorf("reconfig: artifact carries no rule program source")
	}
	if len(a.Bases) == 0 {
		return fmt.Errorf("reconfig: artifact carries no decision tables")
	}
	return nil
}

// Summary renders the human-readable artifact dump (pinned by golden
// tests): identity, epoch, regime, checksum and one row per decision
// table.
func (a *Artifact) Summary() (string, error) {
	sum, err := a.Checksum()
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "artifact: %s (%s) format v%d\n", a.Name, a.Algorithm, a.FormatVersion)
	fmt.Fprintf(&b, "epoch:    %d\n", a.Epoch)
	fmt.Fprintf(&b, "regime:   %s\n", a.Regime)
	if a.Algorithm == "routec" {
		fmt.Fprintf(&b, "params:   d=%d a=%d\n", a.CubeDim, a.Adaptivity)
	}
	if a.Algorithm == "maze" {
		fmt.Fprintf(&b, "params:   ports=%d\n", a.Ports)
	}
	fmt.Fprintf(&b, "source:   %d bytes\n", len(a.Source))
	fmt.Fprintf(&b, "checksum: sha256:%s\n", sum)
	tb := metrics.NewTable("decision tables", "base", "bytes")
	for _, bt := range a.Bases {
		tb.AddRow(bt.Name, len(bt.Data))
	}
	b.WriteString(tb.String())
	return b.String(), nil
}
