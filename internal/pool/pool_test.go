package pool

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's id from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// Results reach done on the caller's goroutine in completion order, not
// index order: task 0 cannot finish until task 1 has been delivered.
func TestDoneRunsOnCallerInCompletionOrder(t *testing.T) {
	t.Parallel()
	caller := goid()
	delivered1 := make(chan struct{})
	var order []int
	err := Run(context.Background(), 2, 2, func(i int) (int, error) {
		if i == 0 {
			<-delivered1
		}
		return i * 10, nil
	}, func(i, v int) bool {
		if g := goid(); g != caller {
			t.Errorf("done(%d) ran on goroutine %s, want the caller's %s", i, g, caller)
		}
		if v != i*10 {
			t.Errorf("done(%d) got %d, want %d", i, v, i*10)
		}
		order = append(order, i)
		if i == 1 {
			close(delivered1)
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{1, 0}) {
		t.Fatalf("delivery order %v, want [1 0]", order)
	}
}

// The first task error is returned and stops dispatch; the tasks before
// it reach done in index order on one worker.
func TestFirstErrorStopsDispatch(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	var ran atomic.Int64
	var got []int
	err := Run(context.Background(), 10, 1, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	}, func(i, _ int) bool {
		got = append(got, i)
		return false
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want %v", err, boom)
	}
	if ran.Load() != 4 || !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("ran %d tasks, delivered %v; want 4 and [0 1 2]", ran.Load(), got)
	}
}

// A task already running when another fails still finishes and still
// reaches done.
func TestRunningTaskReachesDoneAfterError(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	started1, failed0 := make(chan struct{}), make(chan struct{})
	var got []int
	err := Run(context.Background(), 2, 2, func(i int) (int, error) {
		if i == 0 {
			<-started1
			defer close(failed0)
			return 0, boom
		}
		close(started1)
		<-failed0
		return i, nil
	}, func(i, _ int) bool {
		got = append(got, i)
		return false
	})
	if !errors.Is(err, boom) || !slices.Equal(got, []int{1}) {
		t.Fatalf("Run = %v, delivered %v; want %v and [1]", err, got, boom)
	}
}

// done returning true stops dispatch without an error. Task i waits
// until done has seen task i-1, so the lone worker runs at most a task or
// two past the stop (the stop lands just after done returns); without
// the stop it would run all n.
func TestDoneTrueStopsDispatch(t *testing.T) {
	t.Parallel()
	const n = 1000
	seen := make([]chan struct{}, n)
	for i := range seen {
		seen[i] = make(chan struct{})
	}
	var ran atomic.Int64
	err := Run(context.Background(), n, 1, func(i int) (int, error) {
		if i > 0 {
			<-seen[i-1]
		}
		ran.Add(1)
		return i, nil
	}, func(i, _ int) bool {
		close(seen[i])
		return i == 2
	})
	if err != nil || ran.Load() < 3 || ran.Load() == n {
		t.Fatalf("Run = %v after %d of %d tasks, want nil soon after 3", err, ran.Load(), n)
	}
}

// Cancellation stops dispatch; every task that finished is handed over
// before ctx's error returns.
func TestCancelHandsOverFinishedTasks(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []int
	err := Run(ctx, 10, 1, func(i int) (int, error) {
		if i == 2 {
			cancel()
		}
		return i, nil
	}, func(i, _ int) bool {
		got = append(got, i)
		return false
	})
	if !errors.Is(err, context.Canceled) || !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("Run = %v, delivered %v; want %v and [0 1 2]", err, got, context.Canceled)
	}
}

// No more workers start than there are tasks, and workers <= 0 selects
// at most GOMAXPROCS.
func TestWorkersCapped(t *testing.T) {
	// Not parallel: it counts the process's goroutines.
	const n = 3
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	wg.Add(n)
	during := 0
	err := Run(context.Background(), n, 100, func(i int) (int, error) {
		wg.Done()
		wg.Wait() // all n run at once
		if i == 0 {
			during = runtime.NumGoroutine()
		}
		return i, nil
	}, func(int, int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	// n workers plus the goroutine that closes the result channel.
	if extra := during - base; extra > n+1 {
		t.Fatalf("%d extra goroutines for %d tasks", extra, n)
	}

	var mu sync.Mutex
	ids := map[string]bool{}
	if err := Run(context.Background(), 64, 0, func(i int) (int, error) {
		mu.Lock()
		ids[goid()] = true
		mu.Unlock()
		return i, nil
	}, func(int, int) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if len(ids) > runtime.GOMAXPROCS(0) {
		t.Fatalf("workers=0 ran tasks on %d goroutines, GOMAXPROCS is %d", len(ids), runtime.GOMAXPROCS(0))
	}
}

// An empty run calls nothing and returns ctx's error.
func TestZeroTasks(t *testing.T) {
	t.Parallel()
	task := func(int) (int, error) { t.Error("task called"); return 0, nil }
	done := func(int, int) bool { t.Error("done called"); return false }
	if err := Run(context.Background(), 0, 4, task, done); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(ctx, 0, 4, task, done); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run = %v, want %v", err, context.Canceled)
	}
}
