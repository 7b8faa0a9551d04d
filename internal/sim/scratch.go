package sim

// Scratch lends one reusable slice to one process at a time, so a list
// rebuilt on every burst allocates only while it grows. The holder is the
// object whose methods build the list (a ring, a buffer-pool port).
//
// Take empties the holder. A process that yields while its list is walked
// (a GatherRead parks its process while spin steps issue the lines one
// event at a time) may be overtaken by another process calling the same
// method; that one takes nothing and appends into fresh memory instead of
// overwriting a list still in use. Put hands a slice back
// with its capacity; of two overlapping users, the last to put wins.
type Scratch[T any] struct{ s []T }

// Take returns the lent slice, empty, and leaves the holder empty.
//
//ccnic:noalloc
func (x *Scratch[T]) Take() []T {
	s := x.s
	x.s = nil
	return s[:0]
}

// Put returns a slice obtained from Take (possibly grown) to the holder.
//
//ccnic:noalloc
func (x *Scratch[T]) Put(s []T) { x.s = s }
