package svc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAdmissionFastPath(t *testing.T) {
	q := NewClassQueue("t", 2, 4)
	r1, err := q.Acquire(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := q.Acquire(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(q.slots); got != 2 {
		t.Fatalf("running = %d", got)
	}
	r1()
	r2()
	if got := len(q.slots); got != 0 {
		t.Fatalf("running after release = %d", got)
	}
}

func TestAdmissionShedsBeyondWaitBound(t *testing.T) {
	q := NewClassQueue("t", 1, 0) // 1 slot, nobody may wait
	release, err := q.Acquire(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire(context.Background(), false); !errors.Is(err, ErrShed) {
		t.Fatalf("full queue returned %v, want ErrShed", err)
	}
	if got := q.ShedFull.Value(); got != 1 {
		t.Fatalf("ShedFull = %d", got)
	}
	release()
	release, err = q.Acquire(context.Background(), false)
	if err != nil {
		t.Fatalf("slot freed but Acquire failed: %v", err)
	}
	release()
}

func TestAdmissionPressureShed(t *testing.T) {
	q := NewClassQueue("t", 4, 8)
	if _, err := q.Acquire(context.Background(), true); !errors.Is(err, ErrShed) {
		t.Fatalf("pressured Acquire returned %v, want ErrShed", err)
	}
	if got := q.ShedPressure.Value(); got != 1 {
		t.Fatalf("ShedPressure = %d", got)
	}
}

func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	q := NewClassQueue("t", 1, 4)
	release, err := q.Acquire(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := q.Acquire(ctx, false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire returned %v, want DeadlineExceeded", err)
	}
	if got := q.ShedDeadline.Value(); got != 1 {
		t.Fatalf("ShedDeadline = %d", got)
	}
	if got := q.Depth(); got != 0 {
		t.Fatalf("Depth after deadline shed = %d", got)
	}
	release()
}

// TestAdmissionQueueDepthBounded hammers a tiny queue from many
// goroutines and checks the depth gauge never exceeds the wait bound —
// the acceptance criterion's "queue-depth gauge stays bounded".
func TestAdmissionQueueDepthBounded(t *testing.T) {
	const maxWait = 3
	q := NewClassQueue("t", 1, maxWait)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := q.Acquire(context.Background(), false)
			if err != nil {
				return // shed — fine
			}
			time.Sleep(time.Millisecond)
			release()
		}()
	}
	wg.Wait()
	if hw := q.DepthHW.Value(); hw > maxWait {
		t.Fatalf("depth high water %d exceeded wait bound %d", hw, maxWait)
	}
	if q.ShedFull.Value() == 0 {
		t.Fatal("expected at least one queue-full shed under the hammer")
	}
	if got := q.Depth(); got != 0 {
		t.Fatalf("Depth after drain = %d", got)
	}
}

func TestAdmissionPressuredThreshold(t *testing.T) {
	a := NewAdmission(2, 4, 5)
	if a.Pressured() {
		t.Fatal("empty backlog reported pressured")
	}
	// 80% of 5 = 4 waiting trips the pressure threshold.
	a.Reconfig.Waiting.Add(4)
	if !a.Pressured() {
		t.Fatal("4/5 backlog not reported pressured")
	}
	a.Reconfig.Waiting.Add(-4)
}
