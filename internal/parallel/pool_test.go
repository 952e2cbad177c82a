package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{0, p}, {-1, p}, {-100, p}, {1, 1}, {7, 7},
	} {
		if got := Workers(tc.in); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int64
	err := ForEach(workers, 64, func(i int) error {
		c := cur.Add(1)
		defer cur.Add(-1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		runtime.Gosched()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Errorf("observed %d concurrent calls, limit %d", m, workers)
	}
}

func TestForEachSequentialStopsAtFirstError(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	err := ForEach(1, 100, func(i int) error {
		calls++
		if i == 5 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 6 {
		t.Errorf("sequential path made %d calls, want 6 (stop at first error)", calls)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Both tasks synchronize so that both are guaranteed to run and
	// fail; the returned error must be task 0's.
	var barrier sync.WaitGroup
	barrier.Add(2)
	err := ForEach(2, 2, func(i int) error {
		barrier.Done()
		barrier.Wait()
		return fmt.Errorf("task %d", i)
	})
	if err == nil || err.Error() != "task 0" {
		t.Fatalf("err = %v, want task 0", err)
	}
}

func TestForEachSkipsAfterFailure(t *testing.T) {
	var calls atomic.Int64
	err := ForEach(2, 1000, func(i int) error {
		calls.Add(1)
		return errors.New("always")
	})
	if err == nil {
		t.Fatal("want error")
	}
	if c := calls.Load(); c >= 1000 {
		t.Errorf("all %d tasks ran despite early failure", c)
	}
}

func TestMapDiscardsResultsOnError(t *testing.T) {
	got, err := Map(4, 10, func(i int) (int, error) {
		if i == 9 {
			return 0, errors.New("late failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got != nil {
		t.Errorf("results not discarded: %v", got)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(4, 0, func(i int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}
