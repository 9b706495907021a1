package sim

import (
	"context"
	"testing"
	"testing/quick"
)

// drain fires every queued event, leaving the clock at the last one.
func drain(s *Scheduler) {
	for s.Step() {
	}
}

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		s.At(at, "e", func() { got = append(got, at) })
	}
	drain(s)
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, "tie", func() { got = append(got, i) })
	}
	drain(s)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestSchedulerNowAdvances(t *testing.T) {
	s := NewScheduler()
	s.At(25, "a", func() {
		if s.Now() != 25 {
			t.Errorf("Now() = %v inside event at 25", s.Now())
		}
	})
	drain(s)
	if s.Now() != 25 {
		t.Errorf("final Now() = %v, want 25", s.Now())
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.At(100, "advance", func() {})
	drain(s)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(50, "past", func() {})
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(10, "victim", func() { fired = true })
	s.Cancel(e)
	drain(s)
	if fired {
		t.Error("canceled event fired")
	}
	if !e.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	// Double cancel is a no-op.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestSchedulerCancelOneOfMany(t *testing.T) {
	s := NewScheduler()
	var got []string
	a := s.At(10, "a", func() { got = append(got, "a") })
	s.At(20, "b", func() { got = append(got, "b") })
	s.At(30, "c", func() { got = append(got, "c") })
	s.Cancel(a)
	drain(s)
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("got %v, want [b c]", got)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired int
	for _, at := range []Time{10, 20, 30, 40} {
		s.At(at, "e", func() { fired++ })
	}
	run := func(deadline Time) {
		if err := s.RunUntil(context.Background(), deadline); err != nil {
			t.Fatal(err)
		}
	}
	run(25)
	if fired != 2 {
		t.Errorf("fired %d events by t=25, want 2", fired)
	}
	if s.Now() != 25 {
		t.Errorf("Now() = %v after RunUntil(25)", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", s.Pending())
	}
	run(100)
	if fired != 4 {
		t.Errorf("fired %d events total, want 4", fired)
	}
	if s.Now() != 100 {
		t.Errorf("Now() = %v after RunUntil(100)", s.Now())
	}
}

// TestSchedulerRunUntilCancel: a cancelled context stops the loop at its
// next poll with the clock where the run got to, not at the deadline; an
// already-cancelled context fires nothing; a fresh context resumes.
func TestSchedulerRunUntilCancel(t *testing.T) {
	s := NewScheduler()
	ctx, cancel := context.WithCancel(context.Background())
	for i := 1; i <= 3*ctxPollEvents; i++ {
		s.At(Time(i), "e", func() {})
	}
	s.At(1, "cancel", cancel)
	for range 2 {
		if err := s.RunUntil(ctx, 10*ctxPollEvents); err != context.Canceled {
			t.Fatalf("RunUntil err = %v, want context.Canceled", err)
		}
		if s.Fired() != ctxPollEvents || s.Now() != ctxPollEvents-1 {
			t.Fatalf("cancelled at Fired() = %d, Now() = %v; want %d, %v",
				s.Fired(), s.Now(), ctxPollEvents, Time(ctxPollEvents-1))
		}
	}
	if err := s.RunUntil(context.Background(), 10*ctxPollEvents); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 || s.Now() != 10*ctxPollEvents {
		t.Errorf("resumed run left %d pending at %v", s.Pending(), s.Now())
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	var fired int
	s.At(10, "a", func() { fired++; s.Stop() })
	s.At(20, "b", func() { fired++ })
	if err := s.RunUntil(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired %d, want 1 (stopped after first)", fired)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d after Stop, want 1", s.Pending())
	}
}

func TestSchedulerEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	var got []Time
	s.At(10, "outer", func() {
		got = append(got, s.Now())
		s.After(5, "inner", func() { got = append(got, s.Now()) })
	})
	drain(s)
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Errorf("got %v, want [10 15]", got)
	}
}

func TestSchedulerFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.At(Time(i), "e", func() {})
	}
	drain(s)
	if s.Fired() != 7 {
		t.Errorf("Fired() = %d, want 7", s.Fired())
	}
}

// Property: for any set of event times, the scheduler fires them in
// non-decreasing time order and ends at the maximum time.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, u := range times {
			at := Time(u)
			s.At(at, "p", func() { fired = append(fired, at) })
		}
		drain(s)
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	base := Time(0).Add(3 * Millisecond)
	if base != 3000 {
		t.Errorf("3ms = %d µs, want 3000", base)
	}
	if base.Sub(Time(1000)) != 2*Millisecond {
		t.Errorf("Sub wrong: %v", base.Sub(Time(1000)))
	}
	if !Time(5).Before(Time(6)) || !Time(6).After(Time(5)) {
		t.Error("Before/After wrong")
	}
	if Time(2*Hour).Hours() != 2 {
		t.Errorf("Hours() = %v, want 2", Time(2*Hour).Hours())
	}
	if got := DurationFromHours(1.5); got != Duration(3*Hour)/2 {
		t.Errorf("DurationFromHours(1.5) = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500µs"},
		{Time(2500 * Microsecond), "2.500ms"},
		{Time(3 * Second), "3.000s"},
		{Time(3 * Hour), "3.00h"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
