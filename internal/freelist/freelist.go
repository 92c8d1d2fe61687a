// Package freelist is the owned free list the engine and the service keep
// their warm buffers on: a mutex and a slice that holds at most a fixed
// number of released items.
//
// Unlike a sync.Pool, what a List holds does not depend on which P
// released an item or on how many GC cycles ran since, so a steady
// workload finds a warm item on every Get once it has warmed up. Unlike a
// list capped at its owner's peak use, what it holds does not depend on the
// widest request it ever served either: the owner picks Max from what it
// runs concurrently, and an item released beyond that goes to the GC.
package freelist

import "sync"

// List is a free list of at most Max items. The zero value keeps nothing;
// set Max before the List is shared.
type List[T any] struct {
	// Max is the most released items the list keeps.
	Max int

	mu   sync.Mutex
	free []T
}

// Get returns the item Put last that is still listed, or false when the
// list is empty.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return x, false
	}
	x = l.free[n-1]
	var zero T
	l.free[n-1] = zero // the slot must not keep a handed-out item reachable
	l.free = l.free[:n-1]
	return x, true
}

// Put lists x unless the list already holds Max items, and reports whether
// it did.
func (l *List[T]) Put(x T) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) >= l.Max {
		return false
	}
	l.free = append(l.free, x)
	return true
}

// Len reports how many released items the list holds.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
