// Command rulec is the paper's "Rule Compiler": it parses a rule
// program, type-checks it, compiles every rule base to its ARON rule
// table and prints the hardware cost report (table dimensions, FCFB
// inventory, register bits).
//
//	rulec program.rules        # compile a file
//	rulec -builtin nafta       # compile a bundled program
//	rulec -builtin routec -d 6 -a 2
//	rulec -builtin maze -ports 4
//	rulec -builtin nafta -artifact nafta.tbl                       # versioned table artifact
//	rulec -builtin maze -ports 4 -artifact maze.tbl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/rules"
	"repro/internal/rulesets"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rulec", flag.ContinueOnError)
	fs.SetOutput(stderr)
	builtin := fs.String("builtin", "", "bundled program: nara, nafta, maze, routec, routec-nft")
	d := fs.Int("d", 6, "hypercube dimension (routec)")
	a := fs.Int("a", 2, "adaptivity command bits (routec)")
	ports := fs.Int("ports", 4, "router port count the maze program is generated for")
	dump := fs.Bool("dump", false, "print the program source before the report")
	optimize := fs.Bool("optimize", false, "run the semantics-preserving transformations (constant folding, dead-rule elimination) and report them")
	emit := fs.Bool("emit", false, "print the (possibly optimised) program as source after the report")
	saveCfg := fs.String("savecfg", "", "directory to write per-rule-base configuration data into")
	artOut := fs.String("artifact", "", "write a versioned rule-table artifact to this path (builtin maze, nafta or routec)")
	epoch := fs.Uint64("epoch", 1, "version epoch to stamp into the artifact")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	die := func(err error) int {
		fmt.Fprintln(stderr, "rulec:", err)
		return 1
	}

	var src, name string
	switch *builtin {
	case "nara":
		src, name = rulesets.NARASource(), "NARA"
	case "nafta":
		src, name = rulesets.NAFTASource(), "NAFTA"
	case "maze":
		if *ports < 2 || *ports > routing.MazeMaxPorts {
			return die(fmt.Errorf("maze supports 2 to %d ports, not %d", routing.MazeMaxPorts, *ports))
		}
		src, name = rulesets.MazeSource(*ports), fmt.Sprintf("MAZE (ports=%d)", *ports)
	case "routec":
		src, name = rulesets.RouteCSource(*d, *a), fmt.Sprintf("ROUTE_C (d=%d, a=%d)", *d, *a)
	case "routec-nft":
		src, name = rulesets.RouteCNFTSource(*d, *a), fmt.Sprintf("ROUTE_C-nft (d=%d, a=%d)", *d, *a)
	case "":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: rulec [-builtin name] [file.rules]")
			return 2
		}
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return die(err)
		}
		src, name = string(data), fs.Arg(0)
	default:
		return die(fmt.Errorf("unknown builtin %q (valid: nara, nafta, maze, routec, routec-nft)", *builtin))
	}
	if *dump {
		fmt.Fprintln(stdout, src)
	}

	prog, err := rules.Parse(src)
	if err != nil {
		return die(err)
	}
	checked, err := rules.Analyze(prog)
	if err != nil {
		return die(err)
	}
	if *optimize {
		opt, reports, err := core.OptimizeProgram(checked, core.CompileOptions{})
		if err != nil {
			return die(err)
		}
		for _, rep := range reports {
			if len(rep.Removed) == 0 && rep.FoldedPremises == 0 {
				continue
			}
			fmt.Fprintf(stdout, "optimised %s: removed rules %v, folded %d premises\n",
				rep.Base, rep.Removed, rep.FoldedPremises)
		}
		checked = opt
	}

	pc, err := core.AnalyzeCost(checked, core.CompileOptions{})
	if err != nil {
		return die(err)
	}

	core.WriteCostReport(stdout, fmt.Sprintf("Rule bases of %s", name), pc)
	if *saveCfg != "" {
		for _, rb := range checked.Prog.RuleBases {
			cb, err := core.CompileBase(checked, rb.Event, core.CompileOptions{})
			if err != nil {
				return die(err)
			}
			path := filepath.Join(*saveCfg, rb.Event+".cfg")
			f, err := os.Create(path)
			if err != nil {
				return die(err)
			}
			if err := cb.SaveConfig(f); err != nil {
				f.Close()
				return die(err)
			}
			if err := f.Close(); err != nil {
				return die(err)
			}
			fmt.Fprintf(stdout, "wrote %s (%d entries)\n", path, cb.Entries)
		}
	}
	if *artOut != "" {
		if *builtin != "nafta" && *builtin != "routec" && *builtin != "maze" {
			return die(fmt.Errorf("-artifact requires -builtin maze, nafta or routec (artifacts name their adapter family)"))
		}
		art, err := reconfig.Build(*builtin, reconfig.BuildOptions{
			Epoch: *epoch, CubeDim: *d, Adaptivity: *a, Ports: *ports,
		})
		if err != nil {
			return die(err)
		}
		if err := writeTo(*artOut, art.Encode); err != nil {
			return die(err)
		}
		summary, err := art.Summary()
		if err != nil {
			return die(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n%s", *artOut, summary)
	}
	if *emit {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, rules.ProgramString(checked.Prog))
	}
	return 0
}

// writeTo creates path and streams encode into it.
func writeTo(path string, encode func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
