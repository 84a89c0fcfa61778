// Command acbench regenerates the paper's evaluation: every figure of
// "A Dynamic Accelerator-Cluster Architecture" (ICPP 2012) plus the
// extension experiments described in DESIGN.md, printed as aligned tables
// or CSV.
//
// Usage:
//
//	acbench                 # all experiments, tables
//	acbench -fig 5          # just Figure 5
//	acbench -fig extA       # the pool-utilization extension
//	acbench -format csv     # CSV output
//	acbench -quick          # reduced grids (smoke test)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dynacc/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", `experiment id: 5..11, fig5..fig11, extA, extB, or "all"`)
	format := flag.String("format", "table", "output format: table or csv")
	quick := flag.Bool("quick", false, "reduced parameter grids")
	flag.Parse()

	ids, err := resolve(*fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := bench.Options{Quick: *quick}
	gens := bench.Figures()
	for _, id := range ids {
		start := time.Now()
		f := gens[id](opts)
		switch *format {
		case "csv":
			fmt.Print(f.CSV())
		case "table":
			fmt.Print(f.Table())
			fmt.Printf("# generated in %v\n\n", time.Since(start).Round(time.Millisecond))
		default:
			fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
			os.Exit(2)
		}
	}
}

func resolve(arg string) ([]string, error) {
	if arg == "all" {
		return bench.FigureOrder(), nil
	}
	id := strings.ToLower(arg)
	if !strings.HasPrefix(id, "fig") && !strings.HasPrefix(id, "ext") {
		id = "fig" + id
	}
	for _, known := range bench.FigureOrder() {
		if strings.EqualFold(known, id) {
			return []string{known}, nil
		}
	}
	return nil, fmt.Errorf("acbench: unknown experiment %q (have %s)", arg,
		strings.Join(bench.FigureOrder(), ", "))
}
