package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachIndexedVisitsAll(t *testing.T) {
	for _, parallelism := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 2, 31, 1000} {
			hits := make([]int32, n)
			ForEachIndexed(n, parallelism, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("parallelism=%d n=%d: index %d visited %d times", parallelism, n, i, h)
				}
			}
		}
	}
}

func TestForEachIndexedBoundsConcurrency(t *testing.T) {
	const limit = 3
	var inFlight, peak atomic.Int64
	ForEachIndexed(500, limit, func(i int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inFlight.Add(-1)
	})
	if got := peak.Load(); got > limit {
		t.Fatalf("observed %d concurrent tasks, limit %d", got, limit)
	}
}

func TestForEachIndexedPanicPropagates(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("parallelism=%d: panic not propagated", parallelism)
				}
				if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
					t.Fatalf("parallelism=%d: unexpected panic value %v", parallelism, r)
				}
			}()
			ForEachIndexed(100, parallelism, func(i int) {
				if i == 42 {
					panic("boom at 42")
				}
			})
		}()
	}
}

func TestForEachErrReturnsLowestIndex(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		err := ForEachErr(100, parallelism, func(i int) error {
			if i%30 == 17 { // fails at 17, 47, 77
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 17 failed" {
			t.Fatalf("parallelism=%d: got %v, want error of lowest failing index 17", parallelism, err)
		}
	}
}

func TestForEachErrNil(t *testing.T) {
	calls := int32(0)
	if err := ForEachErr(50, 4, func(i int) error {
		atomic.AddInt32(&calls, 1)
		return nil
	}); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if calls != 50 {
		t.Fatalf("ran %d of 50 tasks", calls)
	}
}

func TestForEachErrStopsDispatching(t *testing.T) {
	// With one worker dispatch is in order, so a failure at index 0 must
	// prevent later tasks from starting.
	var calls int32
	err := ForEachErr(1000, 1, func(i int) error {
		atomic.AddInt32(&calls, 1)
		return errors.New("immediate")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if calls != 1 {
		t.Fatalf("ran %d tasks after first failure, want 1", calls)
	}
}

func TestMapOrder(t *testing.T) {
	got := Map(64, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("index %d: got %d, want %d", i, v, i*i)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(5) != 5 {
		t.Fatal("positive parallelism must be respected")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("non-positive parallelism must normalize to at least 1")
	}
}
