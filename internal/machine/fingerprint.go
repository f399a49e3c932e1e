package machine

import (
	"sort"

	"perfpredict/internal/source"
)

// Fingerprint returns a 128-bit content hash of the machine
// description: unit inventory, dispatch width, feature flags, and the
// complete atomic-operation cost table, all in canonical order. Two
// machines hash equal iff they describe the same target — regardless of
// how they were constructed (hand-coded, spec-loaded, or mutated) and
// of where they live in memory.
//
// The fingerprint is the machine's identity everywhere costs are
// memoized: the straight-line segment cache and the nest-level cost
// cache (package aggregate) mix it into their keys, and the tetris and
// pipesim scratch pools use it to decide whether machine-derived
// tables may be reused. Keying on content rather than name or pointer
// means two targets that share a name but differ in even one segment
// can never alias each other's cache entries, while content-identical
// machines built by separate registry lookups share freely.
//
// The hash is the two-lane FNV scheme of source.Fingerprint; the
// "machine/v1" tag domain-separates it from AST fingerprints. It is
// computed on the first call and memoized, which is why a machine must
// not change after its first use. Safe for concurrent use.
func (m *Machine) Fingerprint() source.Fingerprint {
	m.fpOnce.Do(func() { m.fp = m.fingerprint() })
	return m.fp
}

func (m *Machine) fingerprint() source.Fingerprint {
	fp := source.Fingerprint{}.MixString("machine/v1").MixString(m.Name)
	fp = fp.MixUint64(uint64(m.DispatchWidth))
	var flags uint64
	if m.HasFMA {
		flags = 1
	}
	fp = fp.MixUint64(flags)
	fp = fp.MixUint64(uint64(int64(m.LoadsPerStore)))
	fp = fp.MixUint64(uint64(int64(m.BranchCost)))

	// The memory hierarchy is mixed only when declared, so machines
	// without one keep their historical fingerprints (and their warm
	// cache entries), while two machines that differ only in the
	// hierarchy can never alias.
	if h := m.Memory; h != nil {
		fp = fp.MixString("memory/v1").MixUint64(uint64(int64(h.ElemBytes)))
		fp = fp.MixUint64(uint64(len(h.Levels)))
		for _, l := range h.Levels {
			fp = fp.MixString(l.Name).
				MixUint64(uint64(l.SizeBytes)).
				MixUint64(uint64(l.LineBytes)).
				MixUint64(uint64(int64(l.Assoc))).
				MixUint64(uint64(l.MissPenalty))
		}
		if t := h.TLB; t != nil {
			fp = fp.MixString("tlb").
				MixUint64(uint64(t.PageBytes)).
				MixUint64(uint64(t.Entries)).
				MixUint64(uint64(int64(t.Assoc))).
				MixUint64(uint64(t.MissPenalty))
		}
	}

	kinds := make([]string, 0, len(m.UnitCounts))
	for k := range m.UnitCounts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	fp = fp.MixUint64(uint64(len(kinds)))
	for _, k := range kinds {
		fp = fp.MixString(k).MixUint64(uint64(int64(m.UnitCounts[UnitKind(k)])))
	}

	names := make([]string, 0, len(m.Table))
	byName := make(map[string][]AtomicOp, len(m.Table))
	for op, seq := range m.Table {
		n := op.String()
		names = append(names, n)
		byName[n] = seq
	}
	sort.Strings(names)
	fp = fp.MixUint64(uint64(len(names)))
	for _, n := range names {
		fp = fp.MixString(n)
		seq := byName[n]
		fp = fp.MixUint64(uint64(len(seq)))
		for _, a := range seq {
			fp = fp.MixString(a.Name).MixUint64(uint64(len(a.Segments)))
			for _, s := range a.Segments {
				fp = fp.MixString(string(s.Unit)).
					MixUint64(uint64(int64(s.Start))).
					MixUint64(uint64(int64(s.Noncov))).
					MixUint64(uint64(int64(s.Cov)))
			}
		}
	}
	return fp
}
