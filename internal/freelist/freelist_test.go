package freelist

import (
	"sync"
	"testing"
)

// TestListKeepsAtMostMax: a Get returns the item Put last, whichever
// goroutine asks, and a Put beyond Max drops its item however many were
// out at once.
func TestListKeepsAtMostMax(t *testing.T) {
	l := List[*int]{Max: 2}
	if _, ok := l.Get(); ok {
		t.Fatal("an empty list handed out an item")
	}
	items := make([]*int, 5)
	for i := range items {
		items[i] = new(int)
	}
	for i, x := range items {
		if kept := l.Put(x); kept != (i < 2) {
			t.Fatalf("Put %d kept=%v with %d listed, want %v", i, kept, l.Len(), i < 2)
		}
	}
	if l.Len() != 2 {
		t.Fatalf("%d listed after five Puts, want Max 2", l.Len())
	}
	done := make(chan *int)
	go func() {
		x, _ := l.Get()
		done <- x
	}()
	if x := <-done; x != items[1] {
		t.Error("a Get on another goroutine did not return the item Put last")
	}
	if x, ok := l.Get(); !ok || x != items[0] {
		t.Error("the second Get did not return the first item")
	}
	if l.Len() != 0 {
		t.Errorf("%d listed after two Gets, want 0", l.Len())
	}

	var zero List[int]
	if zero.Put(1) || zero.Len() != 0 {
		t.Error("the zero List kept an item")
	}
}

// TestListConcurrent: goroutines getting and putting at once never leave
// more than Max listed, and each writes the item it holds — under -race,
// an item handed to two goroutines at once is a reported race.
func TestListConcurrent(t *testing.T) {
	const workers, rounds, limit = 4, 500, 3
	l := List[*int]{Max: limit}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				x, ok := l.Get()
				if !ok {
					x = new(int)
				}
				*x = r
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	if n := l.Len(); n < 1 || n > limit {
		t.Errorf("%d listed after the workers finished, want 1..%d", n, limit)
	}
}
