// Command mmureport is `mmu report` under its own name: it regenerates
// the paper's tables and figures on the simulator. It takes the same
// flags (mmureport -list, -experiment table2, -all -j 8, ...). The
// benchmark builds this package, which holds the PGO profile that
// `go build` applies to it.
package main

import (
	"os"

	"mmutricks/internal/cli"
)

func main() {
	os.Exit(cli.Main(append([]string{"report"}, os.Args[1:]...), os.Stdout, os.Stderr))
}
