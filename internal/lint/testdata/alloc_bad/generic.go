package allocbad

// slots is a generic table: its noalloc accessor may not allocate, and
// noalloc paths may not call its unannotated helpers, however instantiated.
type slots[T any] struct{ v []*T }

//ccnic:noalloc
func (s *slots[T]) at(i int) *T {
	if s.v[i] == nil {
		s.v[i] = new(T) // want "new allocates"
	}
	return s.v[i]
}

// grow is NOT annotated.
func (s *slots[T]) grow(n int) { s.v = append(s.v, make([]*T, n)...) }

// firstOf is NOT annotated.
func firstOf[T any](s *slots[T]) *T { return s.at(0) }

//ccnic:noalloc
func (p *pool) fill(s *slots[int]) int {
	s.grow(1)            // want "call to .*slots.*grow, which is not annotated"
	a := firstOf(s)      // want "call to .*firstOf, which is not annotated"
	b := firstOf[int](s) // want "call to .*firstOf, which is not annotated"
	return *a + *b + *s.at(1)
}
