package cli

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mmutricks/internal/arch"
	"mmutricks/internal/exitcode"
	"mmutricks/internal/kernel"
	"mmutricks/internal/ppc"
	"mmutricks/internal/vsid"
)

// runHtabviz visualizes hash-table bucket occupancy for a sweep of
// VSID scatter constants — the tool-equivalent of the histogram the
// paper's authors used to tune the constant until the hot spots
// disappeared (§5.2):
//
//	mmu htabviz -scatter 1,16,897 -procs 64
//	mmu htabviz -scatter 897 -histogram
func runHtabviz(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu htabviz", stderr)
	var (
		scatters  = f.String("scatter", "1,2,16,256,2048,897", "comma-separated scatter constants to sweep")
		procs     = f.Int("procs", 64, "simulated processes")
		kernelPTE = f.Bool("kernel-ptes", false, "keep the kernel's 8192 linear-map PTEs in the table")
		histogram = f.Bool("histogram", false, "print the full per-bucket occupancy histogram for each constant")
	)
	if code, ok := f.parse(args); !ok {
		return code
	}
	var cs []uint32
	for _, s := range strings.Split(*scatters, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
		if err != nil {
			return f.fail(exitcode.Usage, fmt.Errorf("bad scatter %q: %v", s, err))
		}
		cs = append(cs, uint32(v))
	}

	pages := arch.DefaultHTABEntries / *procs
	fmt.Fprintf(stdout, "%d processes x %d pages each (one table capacity offered)\n\n", *procs, pages)
	fmt.Fprintf(stdout, "%-10s %-10s %-12s %-12s %s\n", "scatter", "retained", "occupancy", "max bucket", "empty buckets")
	for _, c := range cs {
		h := populate(c, *kernelPTE, *procs, pages)
		hist := h.OccupancyHistogram()
		maxOcc := 0
		for occ := len(hist.Buckets) - 1; occ >= 0; occ-- {
			if hist.Buckets[occ] > 0 {
				maxOcc = occ
				break
			}
		}
		retained := survey(h, c, *procs, pages)
		fmt.Fprintf(stdout, "%-10d %-10s %-12s %-12s %d\n",
			c,
			fmt.Sprintf("%.1f%%", 100*retained),
			fmt.Sprintf("%.1f%%", 100*float64(h.Occupancy())/float64(h.Capacity())),
			fmt.Sprintf("%d/8", maxOcc),
			hist.Buckets[0])
		if *histogram {
			fmt.Fprintf(stdout, "\noccupancy histogram (buckets holding N PTEs):\n%s\n", hist)
		}
	}
	return exitcode.OK
}

// populate fills a fresh table the way the §5.2 experiment does.
func populate(scatter uint32, kernelPTEs bool, procs, pages int) *ppc.HTAB {
	h := ppc.NewHTAB(arch.DefaultHTABGroups, 0x200000)
	if kernelPTEs {
		for pa := 0; pa < 32<<20; pa += arch.PageSize {
			ea := arch.EffectiveAddr(uint32(arch.KernelBase) + uint32(pa))
			v := vsid.For(0, ea.SegIndex(), scatter)
			h.Insert(arch.VPNOf(v, ea), arch.PhysAddr(pa).Frame(), false, nil, nil)
		}
	}
	for p := 1; p <= procs; p++ {
		for i := 0; i < pages; i++ {
			vpn := pageVPN(scatter, p, i)
			h.Insert(vpn, arch.PFN(i), false, nil, nil)
		}
	}
	return h
}

// survey reports what fraction of the offered user PTEs survived.
func survey(h *ppc.HTAB, scatter uint32, procs, pages int) float64 {
	found, total := 0, 0
	for p := 1; p <= procs; p++ {
		for i := 0; i < pages; i++ {
			total++
			if pte, _, _ := h.Search(pageVPN(scatter, p, i), nil); pte != nil {
				found++
			}
		}
	}
	return float64(found) / float64(total)
}

// pageVPN lays out the i'th page of process p the way similar UNIX
// address spaces look: text, heap, stack.
func pageVPN(scatter uint32, p, i int) arch.VPN {
	var ea arch.EffectiveAddr
	switch i % 4 {
	case 0, 1:
		ea = kernel.UserTextBase + arch.EffectiveAddr((i/2)*arch.PageSize)
	case 2:
		ea = kernel.UserDataBase + arch.EffectiveAddr((i/4)*arch.PageSize)
	default:
		ea = kernel.UserStackTop - arch.EffectiveAddr((i/4+1)*arch.PageSize)
	}
	return arch.VPNOf(vsid.For(uint32(p), ea.SegIndex(), scatter), ea)
}
