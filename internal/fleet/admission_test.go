package fleet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tiledwall/internal/service"
)

// oneSlotFleet builds a fleet with a single one-session wall: every further
// open queues, which is what the admission edge tests need.
func oneSlotFleet(t *testing.T, cfg Config) (*Fleet, *Session) {
	t.Helper()
	cfg.Walls = []service.Config{{K: 0, M: 1, N: 1, MaxSessions: 1}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	hold, err := f.Open("hold", OpenOptions{})
	if err != nil {
		t.Fatalf("hold open: %v", err)
	}
	return f, hold
}

func waitQueued(t *testing.T, f *Fleet, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, f.Stats().Queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkShedError asserts the full typed contract of a shed open: both
// sentinels match through errors.Is, and the wrapped capacity hint is sane.
func checkShedError(t *testing.T, err error, wantFull bool) *AdmissionTimeoutError {
	t.Helper()
	if err == nil {
		t.Fatal("shed open returned nil error")
	}
	if !errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("shed error %v does not match ErrAdmissionTimeout", err)
	}
	if !errors.Is(err, service.ErrTooManySessions) {
		t.Fatalf("shed error %v does not match service.ErrTooManySessions", err)
	}
	var ate *AdmissionTimeoutError
	if !errors.As(err, &ate) {
		t.Fatalf("shed error %v is not an *AdmissionTimeoutError", err)
	}
	if ate.QueueFull != wantFull {
		t.Fatalf("QueueFull = %v, want %v (%v)", ate.QueueFull, wantFull, err)
	}
	if ate.Busy == nil || ate.Busy.RetryAfter <= 0 {
		t.Fatalf("shed error carries no retry hint: %v", err)
	}
	return ate
}

// TestAdmissionDeadlineShedsFIFO holds the fleet at capacity and queues three
// opens with staggered deadlines plus one patient open. The three shed in
// deadline order, each with the typed error; the patient one is granted the
// moment the held session closes — shedding never disturbs its queue slot.
func TestAdmissionDeadlineShedsFIFO(t *testing.T) {
	f, hold := oneSlotFleet(t, Config{})

	type shed struct {
		idx int
		err error
	}
	sheds := make(chan shed, 3)
	deadlines := []time.Duration{150 * time.Millisecond, 300 * time.Millisecond, 450 * time.Millisecond}
	var wg sync.WaitGroup
	for i, d := range deadlines {
		i, d := i, d
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := f.Open(fmt.Sprintf("shed-%d", i), OpenOptions{Deadline: d})
			sheds <- shed{i, err}
		}()
		waitQueued(t, f, i+1) // enqueue in a known order
	}
	granted := make(chan error, 1)
	go func() {
		s, err := f.Open("patient", OpenOptions{Deadline: 30 * time.Second})
		if err == nil {
			s.Close()
		}
		granted <- err
	}()
	waitQueued(t, f, 4)

	for want := 0; want < 3; want++ {
		sh := <-sheds
		if sh.idx != want {
			t.Fatalf("shed order: got waiter %d, want %d (FIFO by deadline)", sh.idx, want)
		}
		ate := checkShedError(t, sh.err, false)
		if ate.Waited < deadlines[sh.idx]/2 {
			t.Fatalf("waiter %d shed after only %v (deadline %v)", sh.idx, ate.Waited, deadlines[sh.idx])
		}
	}
	wg.Wait()
	hold.Close()
	if err := <-granted; err != nil {
		t.Fatalf("patient waiter was not granted after release: %v", err)
	}
	if st := f.Stats(); st.Shed != 3 || st.Queued != 0 {
		t.Fatalf("stats after sheds: %+v, want Shed=3 Queued=0", st)
	}
}

// TestAdmissionQueueFull pins the fast-fail path: an open arriving at a full
// queue sheds immediately with QueueFull set, without waiting its deadline.
func TestAdmissionQueueFull(t *testing.T) {
	f, hold := oneSlotFleet(t, Config{MaxQueue: 2})

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			s, err := f.Open(fmt.Sprintf("queued-%d", i), OpenOptions{Deadline: 30 * time.Second})
			if err == nil {
				s.Close()
			}
			results <- err
		}()
		waitQueued(t, f, i+1)
	}
	start := time.Now()
	_, err := f.Open("overflow", OpenOptions{Deadline: 30 * time.Second})
	checkShedError(t, err, true)
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("queue-full open waited %v, want immediate shed", waited)
	}
	hold.Close()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued open %d: %v", i, err)
		}
	}
}

// TestPriorityNoStarvation drives a sustained overload — capacity one, twelve
// interactive and four bulk opens queued — and releases the slot so grants
// cascade one at a time. The weighted credits must interleave 4:2:1, so bulk
// progresses throughout instead of waiting out the whole interactive queue.
func TestPriorityNoStarvation(t *testing.T) {
	f, hold := oneSlotFleet(t, Config{MaxQueue: 32})

	const nInteractive, nBulk = 12, 4
	var mu sync.Mutex
	var order []Priority
	var wg sync.WaitGroup
	spawn := func(name string, p Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := f.Open(name, OpenOptions{Priority: p, Deadline: 30 * time.Second})
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			// Capacity is one: the next grant happens only after this Close,
			// so the append order is exactly the grant order.
			mu.Lock()
			order = append(order, p)
			mu.Unlock()
			s.Close()
		}()
	}
	for i := 0; i < nInteractive; i++ {
		spawn(fmt.Sprintf("i-%d", i), Interactive)
		waitQueued(t, f, i+1)
	}
	for i := 0; i < nBulk; i++ {
		spawn(fmt.Sprintf("b-%d", i), Bulk)
		waitQueued(t, f, nInteractive+i+1)
	}
	hold.Close()
	wg.Wait()

	if len(order) != nInteractive+nBulk {
		t.Fatalf("granted %d of %d opens", len(order), nInteractive+nBulk)
	}
	var bulkAt []int
	for i, p := range order {
		if p == Bulk {
			bulkAt = append(bulkAt, i+1)
		}
	}
	t.Logf("grant order: %v (bulk at %v)", order, bulkAt)
	if len(bulkAt) != nBulk {
		t.Fatalf("granted %d bulk opens, want %d", len(bulkAt), nBulk)
	}
	// The 4:2:1 credit cycle admits at least one bulk per five grants while
	// interactive pressure lasts: position j+1 of bulk must come by grant
	// 5*(j+1)+1. A starved bulk class would sit at positions 13..16.
	for j, pos := range bulkAt {
		if pos > 5*(j+1)+1 {
			t.Fatalf("bulk grant %d at position %d: starved past its credit cycle", j, pos)
		}
	}
	if bulkAt[0] > 6 {
		t.Fatalf("first bulk grant at position %d, want within the first credit cycle", bulkAt[0])
	}
}

// TestRetryAfterEWMA is the table-driven check that the retry hint's EWMA
// stays monotone-sane under bursty closes: each fold lands between the
// previous estimate and the observation, a burst of short sessions walks the
// estimate down monotonically (and vice versa), and repeated folds converge.
func TestRetryAfterEWMA(t *testing.T) {
	cases := []struct {
		name string
		prev time.Duration
		d    time.Duration
		want time.Duration
	}{
		{"seed from first observation", 0, 80 * time.Millisecond, 80 * time.Millisecond},
		{"steady state is a fixpoint", 100 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond},
		{"quarter-weight down", 100 * time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond},
		{"quarter-weight up", 20 * time.Millisecond, 100 * time.Millisecond, 40 * time.Millisecond},
	}
	for _, c := range cases {
		if got := foldEWMA(c.prev, c.d); got != c.want {
			t.Errorf("%s: foldEWMA(%v, %v) = %v, want %v", c.name, c.prev, c.d, got, c.want)
		}
	}

	// Boundedness: the estimate never overshoots past the observation or
	// regresses behind both inputs, whatever the burst looks like.
	bursts := [][]time.Duration{
		{500 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond},
		{10 * time.Millisecond, time.Second, time.Second, 5 * time.Millisecond},
	}
	for _, burst := range bursts {
		prev := time.Duration(0)
		for _, d := range burst {
			got := foldEWMA(prev, d)
			lo, hi := prev, d
			if prev == 0 {
				lo = d
			}
			if lo > hi {
				lo, hi = hi, lo
			}
			if got < lo || got > hi {
				t.Fatalf("foldEWMA(%v, %v) = %v escapes [%v, %v]", prev, d, got, lo, hi)
			}
			prev = got
		}
	}

	// Monotone descent under a burst of fast closes after a slow regime.
	prev := 800 * time.Millisecond
	for i := 0; i < 20; i++ {
		next := foldEWMA(prev, 5*time.Millisecond)
		if next > prev {
			t.Fatalf("EWMA rose from %v to %v on a fast close", prev, next)
		}
		prev = next
	}
	if prev > 10*time.Millisecond {
		t.Fatalf("EWMA failed to converge toward the burst: still %v", prev)
	}

	// The shed-error hint floors: 100ms with no history, 10ms otherwise.
	f := &Fleet{slots: []*wallSlot{{cfg: service.Config{MaxSessions: 1}}}}
	if got := f.admissionTimeoutLocked(0, false).Busy.RetryAfter; got != 100*time.Millisecond {
		t.Fatalf("no-history retry hint = %v, want 100ms", got)
	}
	f.avgSession = time.Millisecond
	if got := f.admissionTimeoutLocked(0, false).Busy.RetryAfter; got != 10*time.Millisecond {
		t.Fatalf("fast-session retry hint = %v, want the 10ms floor", got)
	}
	f.avgSession = 300 * time.Millisecond
	if got := f.admissionTimeoutLocked(0, false).Busy.RetryAfter; got != 300*time.Millisecond {
		t.Fatalf("steady retry hint = %v, want the EWMA itself", got)
	}
}

// TestTenantBudgets pins per-tenant QoS: session caps and in-flight-picture
// reservations hold across walls, and an over-budget tenant queues while
// other tenants sail through.
func TestTenantBudgets(t *testing.T) {
	f, err := New(Config{
		Walls: []service.Config{
			{K: 0, M: 1, N: 1, MaxSessions: 4, MaxInFlightPictures: 8},
			{K: 0, M: 1, N: 1, MaxSessions: 4, MaxInFlightPictures: 8},
		},
		Tenants: map[string]Tenant{
			"capped":   {MaxSessions: 2},
			"reserved": {MaxInFlightPictures: 16}, // two 8-picture reservations
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for _, tenant := range []string{"capped", "reserved"} {
		var held []*Session
		for i := 0; i < 2; i++ {
			s, err := f.Open(fmt.Sprintf("%s-%d", tenant, i), OpenOptions{Tenant: tenant})
			if err != nil {
				t.Fatalf("%s open %d: %v", tenant, i, err)
			}
			held = append(held, s)
		}
		// The third open exceeds the tenant budget: it must queue (and shed
		// on its deadline) even though both walls have free slots.
		_, err := f.Open(tenant+"-over", OpenOptions{Tenant: tenant, Deadline: 50 * time.Millisecond})
		checkShedError(t, err, false)
		// An unconstrained tenant is untouched by the budget.
		s, err := f.Open("free-"+tenant, OpenOptions{})
		if err != nil {
			t.Fatalf("unconstrained open during %s overload: %v", tenant, err)
		}
		s.Close()
		for _, s := range held {
			s.Close()
		}
		// Budget released: the tenant admits again.
		s, err = f.Open(tenant+"-again", OpenOptions{Tenant: tenant})
		if err != nil {
			t.Fatalf("%s open after release: %v", tenant, err)
		}
		s.Close()
	}
}
