// Package probeclean shows the accepted probe-guard idioms: a direct nil
// check, an && conjunct, and an early-exit guard earlier in the block.
package probeclean

// Probe is an optional validation hook.
type Probe interface {
	Event(kind int)
}

type sys struct{ probe Probe }

func (s *sys) direct() {
	if s.probe != nil {
		s.probe.Event(1)
	}
}

func (s *sys) conjunct(hot bool) {
	if hot && s.probe != nil {
		s.probe.Event(2)
	}
}

func (s *sys) earlyExit() {
	if s.probe == nil {
		return
	}
	s.probe.Event(3)
	s.probe.Event(4)
}

// methodValue exercises the guarded method-value pattern: the take happens
// under the guard, and the bound value is then safe to call anywhere.
func (s *sys) methodValue() func(int) {
	if s.probe == nil {
		return nil
	}
	emit := s.probe.Event
	emit(6)
	return emit
}

// methodExpr involves no receiver evaluation at all and needs no guard.
func methodExpr() func(Probe, int) {
	return Probe.Event
}
