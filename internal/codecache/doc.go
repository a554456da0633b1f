// Package codecache implements the concealed-memory code caches of the
// co-designed VM: allocation of translated code in a hidden region of
// main memory, the translation lookup table mapping architected PCs to
// translations, translation chaining (direct linking of exits to target
// translations, replacing dispatch through the lookup table), and
// capacity management with flush-style eviction.
//
// # Structure
//
// A Cache owns one region of concealed memory and the translations
// allocated in it. The VM monitor (internal/vmm) keeps two — a BBT
// cache for basic-block translations and an SBT cache for optimized
// superblocks — because the paper's staged translation gives them
// different lifetimes: BBT translations are superseded when their
// blocks go hot, SBT translations live until capacity eviction.
//
// Each Translation records its architected entry PC, its producer
// (KindBBT or KindSBT), its encoded micro-op body, and its exits.
// Exits are the chaining points: an ExitTaken/ExitFall exit that has
// been chained jumps straight to the target translation's body,
// skipping dispatch; ExitIndirect exits cannot chain (the target is in
// a register) and go through the jump TLB instead (jtlb.go), the
// software model of the paper's indirect-branch translation buffer.
//
// # Eviction and epochs
//
// Capacity management is flush-style, as in the paper's VMs: when a
// cache fills, it is flushed whole and its epoch increments. Epochs
// make stale references cheap to detect — a chained exit or lookup
// table entry from epoch N is dead once the cache is at N+1, without
// walking anything. The shadow table (meta.go) keeps bounded per-block
// metadata across flushes with a clock eviction, so rediscovered
// blocks keep their profile history.
//
// # Persistence
//
// persist.go serializes a cache's translations to the CCVM2 binary
// format (versioned; each section sealed with store.Seal's CRC-32C
// trailer, the run store's framing) and reads them back through a
// restore index (ParseSnapshot) whose records the VM monitor decodes
// and inserts up front or faults in on dispatch misses — the warm-start
// machinery of DESIGN.md §10 (the lazy/hybrid/eager policy itself
// lives in internal/vmm). Translation bodies round-trip through the
// real fisa encoding, so a restored cache is byte-identical to the
// one that was saved.
//
// Allocation inside a cache goes through the translation arena
// (arena.go): slabs of one fixed size per record type, reused across
// flushes, so steady-state translation allocates nothing on the Go heap
// and a cold cache allocates about what it carves.
package codecache
