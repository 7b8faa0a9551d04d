package allocclean

// slots is a generic table whose accessors are themselves noalloc: calls to
// them resolve to their generic declarations, annotations included, whether
// the type arguments are inferred or written out.
type slots[T any] struct{ v []T }

//ccnic:noalloc
func (s *slots[T]) at(i int) *T { return &s.v[i] }

//ccnic:noalloc
func firstOf[T any](s *slots[T]) *T { return s.at(0) }

//ccnic:noalloc
func (p *pool) sum(s *slots[int]) int {
	return *s.at(1) + *firstOf(s) + *firstOf[int](s)
}
