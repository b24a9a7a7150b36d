// Package ppc models the 32-bit PowerPC 603/604 memory-management unit:
// segment registers, BAT (block address translation) registers, the
// translation lookaside buffer, and the architected hashed page table,
// together with the cycle costs of each translation path.
//
// The MMU is policy-free: it raises faults (TLB miss on the 603,
// hash-table miss on the 604) and the kernel package supplies the
// software that services them, which is exactly the division of labour
// the paper exploits.
package ppc

import (
	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
)

// Bus is the memory system the MMU performs table-walk accesses
// through. The machine implements it over the L1 caches, so hash-table
// and page-table walks create (or, when inhibited, avoid creating)
// cache traffic — the effect §8 of the paper analyses.
type Bus interface {
	// MemAccess performs one physical memory access on behalf of
	// class, charging cycles. Inhibited accesses bypass the cache;
	// writes dirty their line (copy-back caches pay a castout when a
	// dirty victim is evicted).
	MemAccess(pa arch.PhysAddr, class cache.Class, inhibited, write bool)
}

// Fault tells the kernel what software assistance a translation needs.
type Fault int

const (
	// FaultNone: translation completed in hardware.
	FaultNone Fault = iota
	// FaultTLBMiss: the 603 took a TLB-miss interrupt; software must
	// reload the TLB.
	FaultTLBMiss
	// FaultHashMiss: the 604's hardware search found no PTE; software
	// must install one in the hash table.
	FaultHashMiss
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultTLBMiss:
		return "tlb-miss"
	case FaultHashMiss:
		return "hash-miss"
	}
	return "fault(?)"
}
