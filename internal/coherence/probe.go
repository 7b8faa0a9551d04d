package coherence

import (
	"fmt"

	"ccnic/internal/mem"
)

// Probe receives model-validation callbacks from the memory system and the
// structures built on it (rings, buffer pools, workloads). The zero value of
// a System has no probe, and every call site is nil-guarded, so the disabled
// path costs one predictable branch. internal/check implements Probe with an
// online invariant engine; the model packages only emit events and never
// depend on the checker.
//
// Probe implementations must be read-only observers: they run between model
// events under the kernel's one-runnable-at-a-time guarantee and must not
// mutate coherence state, charge time, or touch cache recency (use the
// System's Check* methods, which peek without promoting).
type Probe interface {
	// LineEvent fires after a coherence-state mutation of line has
	// completed and the global state is consistent.
	LineEvent(line mem.Addr)
	// ObjectEvent fires after a structure built on the system (a
	// descriptor ring, a buffer pool) finished a mutating operation.
	ObjectEvent(obj Checkable)
	// Fail reports an inline assertion failure detected by model code
	// itself (e.g. a consumer observing a clear ready flag).
	Fail(err error)
}

// Checkable is a model structure that can validate its own invariants.
type Checkable interface {
	// CheckDesc names the structure for diagnostics.
	CheckDesc() string
	// CheckInvariants returns the first invariant violation found, or nil.
	// Implementations must be cheap enough to run after every mutation;
	// expensive full scans belong in separate methods the engine throttles.
	CheckInvariants() error
}

// SetProbe installs (or removes, with nil) the system's validation probe.
func (s *System) SetProbe(p Probe) { s.probe = p }

// Probe returns the installed validation probe, or nil.
//
//ccnic:noalloc
func (s *System) Probe() Probe { return s.probe }

// lineEvent notifies the probe of a completed line-state mutation.
//
//ccnic:noalloc
func (s *System) lineEvent(line mem.Addr) {
	if s.probe != nil {
		s.probe.LineEvent(line)
	}
}

// SetMigration toggles migratory dirty forwarding (default on). With it off,
// a demand read of a remote-Modified line demotes the owner to Shared and
// fills the reader Shared — the conventional protocol, whose extra
// upgrade/invalidate crossings per producer-consumer roundtrip the Fig 8/17
// ablations measure.
func (s *System) SetMigration(on bool) { s.noMigrate = !on }

// Mutation selects a deliberate protocol defect, used by the validation
// layer's self-tests to prove the invariant engine catches real bugs.
type Mutation uint8

// The supported self-test defects.
const (
	// MutateNone runs the correct protocol.
	MutateNone Mutation = iota
	// MutateStaleMigration breaks migratory dirty forwarding: a demand
	// read migrates ownership without invalidating the previous owner,
	// leaving a stale Modified copy the directory does not know about.
	// UPI only (CXL has no migratory forwarding).
	MutateStaleMigration
	// MutateCXLSnoopDrop breaks the CXL host-managed snoop filter: a
	// device-side fill or upgrade of a host-homed line is never recorded,
	// so the host — which consults the filter, not the directory, to
	// decide whether to snoop across the link — later skips invalidating
	// the device's copy, leaving stale state behind. CXL only.
	MutateCXLSnoopDrop
	// MutateCXLBiasLeak breaks CXL bias management: a device reclaim of a
	// host-bias HDM line flips the bias without flushing host-side copies
	// — the directory forgets them while the host caches keep stale
	// lines, which the engine's full scan reports. CXL only.
	MutateCXLBiasLeak
)

// SetMutation arms a deliberate protocol defect (self-tests only).
func (s *System) SetMutation(m Mutation) { s.mutation = m }

// CorruptSharerSetForTest duplicates the first sharer in line's directory
// entry, violating the no-duplicate-sharers invariant. It reports whether
// the line had a sharer to duplicate. Validation-layer self-tests only.
func (s *System) CorruptSharerSetForTest(line mem.Addr) bool {
	d := s.lookup(line)
	if d == nil || len(d.sharers) == 0 {
		return false
	}
	d.sharers = append(d.sharers, d.sharers[0])
	return true
}

// CheckLine validates the directory entry for one line against the cache
// entries it names: owner and sharers are mutually exclusive, the owner's
// entry is resident holding the line Modified, and each sharer's is
// resident holding it Shared, one per cache; under CXL the line's snoop
// filter or bias must agree too. It is O(sharers) and allocation-free,
// cheap enough to run after every line event; stray copies unknown to the
// directory require the full CheckInvariants scan.
func (s *System) CheckLine(line mem.Addr) error {
	if err := s.checkDirLine(line); err != nil {
		return err
	}
	if s.cxl != nil {
		return s.cxl.checkLine(line)
	}
	return nil
}

// checkDirLine is CheckLine's protocol-independent half.
func (s *System) checkDirLine(line mem.Addr) error {
	d := s.lookup(line)
	if d == nil {
		return nil
	}
	if o := d.owner; o != nil {
		if len(d.sharers) > 0 {
			return fmt.Errorf("line %#x: owner %s coexists with %d sharers",
				line, o.c.name, len(d.sharers))
		}
		if !o.resident(line) {
			return fmt.Errorf("line %#x: directory owner %s does not hold the line",
				line, o.c.name)
		}
		if o.state != Modified {
			return fmt.Errorf("line %#x: owner %s holds it %v, want M",
				line, o.c.name, o.state)
		}
		return nil
	}
	for i, e := range d.sharers {
		for _, prev := range d.sharers[:i] {
			if prev.c == e.c {
				return fmt.Errorf("line %#x: duplicate sharer %s", line, e.c.name)
			}
		}
		if !e.resident(line) {
			return fmt.Errorf("line %#x: directory sharer %s does not hold the line",
				line, e.c.name)
		}
		if e.state != Shared {
			return fmt.Errorf("line %#x: sharer %s holds it %v, want S",
				line, e.c.name, e.state)
		}
	}
	return nil
}
