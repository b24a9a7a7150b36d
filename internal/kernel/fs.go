package kernel

import (
	"fmt"

	"mmutricks/internal/clock"
)

// A minimal file namespace, enough for LmBench's lat_fs (create and
// delete files): a single directory whose entries hash onto kernel-data
// buckets, inodes as kernel-data records, and page-cache frames for
// file contents.
const (
	creatInstr  = 420 // namei + dentry insert + inode init
	unlinkInstr = 380 // namei + dentry remove + inode free
	nameiPerEnt = 18  // directory-scan cost per entry examined
	dirBuckets  = 64
)

// dirHash places a name in a directory bucket (FNV-1a folded).
func dirHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h % dirBuckets
}

// namei charges the directory lookup: the bucket's dentry chain is
// scanned entry by entry.
func (k *Kernel) namei(name string) (*File, bool) {
	b := dirHash(name)
	k.kdata(dataPageCache+0x1000+b*64, 64)
	n := 0
	for other := range k.names {
		if dirHash(other) == b {
			n++
		}
	}
	k.M.Led.Charge(clock.Cycles(nameiPerEnt * (n + 1)))
	f, ok := k.names[name]
	return f, ok
}

// SysCreat creates a file of the given size in the page cache and
// enters it in the namespace. Creating an existing name truncates it
// to the new size.
func (k *Kernel) SysCreat(name string, pages int) *File {
	defer k.M.Trc.Exit(k.syscallEntry())
	k.kexec(textFileIO+0x400, creatInstr)
	if old, ok := k.namei(name); ok {
		k.freeFilePages(old)
		old.Pages = nil
		k.allocFilePages(old, pages)
		return old
	}
	f := &File{ID: k.nextFile}
	k.nextFile++
	k.allocFilePages(f, pages)
	k.files[f.ID] = f
	if k.names == nil {
		k.names = make(map[string]*File)
	}
	k.names[name] = f
	k.kdata(dataPageCache+0x2000+uint32(f.ID%64)*64, 64) // the inode
	return f
}

// SysUnlink removes a file, returning its page-cache frames.
func (k *Kernel) SysUnlink(name string) {
	defer k.M.Trc.Exit(k.syscallEntry())
	k.kexec(textFileIO+0x600, unlinkInstr)
	f, ok := k.namei(name)
	if !ok {
		panic(fmt.Sprintf("kernel: unlink of missing file %q", name))
	}
	k.freeFilePages(f)
	delete(k.names, name)
	delete(k.files, f.ID)
}

// Lookup resolves a name without mutating anything (a stat).
func (k *Kernel) SysStat(name string) (*File, bool) {
	defer k.M.Trc.Exit(k.syscallEntry())
	k.kexec(textFileIO+0x700, 160)
	return k.namei(name)
}

func (k *Kernel) allocFilePages(f *File, pages int) {
	for i := 0; i < pages; i++ {
		pfn := k.getFreePage()
		f.Pages = append(f.Pages, pfn)
	}
}

func (k *Kernel) freeFilePages(f *File) {
	for _, pfn := range f.Pages {
		k.M.Mem.FreeFrame(pfn)
	}
	f.Pages = nil
}
