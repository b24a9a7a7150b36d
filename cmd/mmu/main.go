// Command mmu drives the simulator: it regenerates the paper's tables
// and figures, runs the benchmarks, soaks, records and model-checks the
// kernel. `mmu` alone lists the subcommands; `mmu <command> -h` lists a
// subcommand's flags.
//
//	mmu report -all                  every table and figure, measured vs paper
//	mmu lmbench -cpu 603/180         the microbenchmarks on one machine
//	mmu trace record -o trace.json   an MMU event trace
//
// The exit status follows internal/exitcode: 0 ok, 1 internal, 2 usage,
// 3 cycle budget, 4 panic, 5 audit failure.
package main

import (
	"os"

	"mmutricks/internal/cli"
)

func main() {
	os.Exit(cli.Main(os.Args[1:], os.Stdout, os.Stderr))
}
