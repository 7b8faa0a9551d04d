// Package probebad calls validation hooks without dominating nil guards.
// The hooks are nil in every production run, so each of these calls is a
// panic waiting for checks to be disabled.
package probebad

// Probe is an optional validation hook, nil unless a checker is attached.
type Probe interface {
	Event(kind int)
}

type sys struct{ probe Probe }

// mutate has no guard at all.
func (s *sys) mutate() {
	s.probe.Event(1) // want "not nil-guarded"
}

// disjunct guards with ||, which does not dominate the call: the left
// operand alone can take the branch with a nil hook.
func (s *sys) disjunct(checks bool) {
	if checks || s.probe != nil {
		s.probe.Event(2) // want "not nil-guarded"
	}
}

// deferred guards outside a closure; the closure may run later, after the
// hook changed, so the guard does not dominate the inner call.
func (s *sys) deferred() func() {
	if s.probe != nil {
		return func() {
			s.probe.Event(3) // want "not nil-guarded"
		}
	}
	return nil
}

// immediate invokes the literal in place under the guard. Domination does
// not reach into any function literal, so the literal needs its own guard.
func (s *sys) immediate() {
	if s.probe != nil {
		func() {
			s.probe.Event(5) // want "not nil-guarded"
		}()
	}
}

// deferredClosure invokes the literal at its definition site, but under
// defer: it runs at function exit, after the guard may have been
// invalidated.
func (s *sys) deferredClosure() {
	if s.probe != nil {
		defer func() {
			s.probe.Event(4) // want "not nil-guarded"
		}()
	}
}

// methodValue takes pr.Event without a guard; evaluating a method value on
// a nil interface panics just like calling through it.
func (s *sys) methodValue() func(int) {
	return s.probe.Event // want "method value taken from Probe hook"
}
