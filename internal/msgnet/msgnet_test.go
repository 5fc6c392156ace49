package msgnet

import (
	"errors"
	"sync"
	"testing"

	"pak/internal/protocol"
	"pak/internal/ratutil"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrBadLoss) {
		t.Errorf("New(nil) err = %v", err)
	}
	if _, err := New(ratutil.R(3, 2)); !errors.Is(err, ErrBadLoss) {
		t.Errorf("New(3/2) err = %v", err)
	}
	if _, err := New(ratutil.R(-1, 2)); !errors.Is(err, ErrBadLoss) {
		t.Errorf("New(-1/2) err = %v", err)
	}
	n, err := New(ratutil.R(1, 10))
	if err != nil {
		t.Fatalf("New(1/10): %v", err)
	}
	if !ratutil.Eq(n.Loss(), ratutil.R(1, 10)) {
		t.Errorf("Loss = %v", n.Loss())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(bad) did not panic")
		}
	}()
	MustNew(ratutil.R(2, 1))
}

func TestNewCopiesLoss(t *testing.T) {
	loss := ratutil.R(1, 10)
	n := MustNew(loss)
	loss.SetInt64(1)
	if !ratutil.Eq(n.Loss(), ratutil.R(1, 10)) {
		t.Fatal("Net aliased caller's loss value")
	}
}

func twoMsgs() []Msg {
	return []Msg{
		{From: 0, To: 1, Payload: "m1"},
		{From: 0, To: 1, Payload: "m2"},
	}
}

func TestPatternsTwoMessages(t *testing.T) {
	// Paper Example 1: loss 1/10 per message, two messages. The four
	// patterns have probabilities 81/100, 9/100, 9/100, 1/100.
	n := MustNew(ratutil.R(1, 10))
	pats := n.Patterns(twoMsgs())
	if len(pats) != 4 {
		t.Fatalf("got %d patterns, want 4", len(pats))
	}
	want := map[string]string{
		"deliver:11": "81/100",
		"deliver:10": "9/100",
		"deliver:01": "9/100",
		"deliver:00": "1/100",
	}
	total := ratutil.Zero()
	for _, p := range pats {
		w, ok := want[p.Value]
		if !ok {
			t.Fatalf("unexpected pattern %q", p.Value)
		}
		if p.Pr.RatString() != w {
			t.Errorf("pattern %q pr = %s, want %s", p.Value, p.Pr.RatString(), w)
		}
		total = ratutil.Add(total, p.Pr)
	}
	if !ratutil.IsOne(total) {
		t.Fatalf("patterns sum to %v", total)
	}
}

func TestPatternsNoMessages(t *testing.T) {
	n := MustNew(ratutil.R(1, 10))
	pats := n.Patterns(nil)
	if len(pats) != 1 || pats[0].Value != "deliver:" || !ratutil.IsOne(pats[0].Pr) {
		t.Fatalf("no-message patterns = %v", pats)
	}
}

func TestPatternsDegenerateLoss(t *testing.T) {
	// loss = 0: only the all-delivered pattern (zero-probability patterns
	// must be omitted to satisfy the pps positivity requirement).
	perfect := MustNew(ratutil.Zero())
	pats := perfect.Patterns(twoMsgs())
	if len(pats) != 1 || pats[0].Value != "deliver:11" {
		t.Fatalf("perfect patterns = %v", pats)
	}
	// loss = 1: only the all-lost pattern.
	dead := MustNew(ratutil.One())
	pats = dead.Patterns(twoMsgs())
	if len(pats) != 1 || pats[0].Value != "deliver:00" {
		t.Fatalf("dead patterns = %v", pats)
	}
	// Degenerate patterns are valid protocol distributions.
	if err := protocol.ValidateDist(pats); err != nil {
		t.Fatalf("ValidateDist: %v", err)
	}
}

func TestDelivered(t *testing.T) {
	ok, err := Delivered("deliver:10", 0)
	if err != nil || !ok {
		t.Errorf("bit 0: %v,%v", ok, err)
	}
	ok, err = Delivered("deliver:10", 1)
	if err != nil || ok {
		t.Errorf("bit 1: %v,%v", ok, err)
	}
	if _, err := Delivered("bogus", 0); !errors.Is(err, ErrBadPattern) {
		t.Errorf("bogus pattern err = %v", err)
	}
	if _, err := Delivered("deliver:10", 5); !errors.Is(err, ErrBadPattern) {
		t.Errorf("out-of-range err = %v", err)
	}
	if _, err := Delivered("deliver:1x", 1); !errors.Is(err, ErrBadPattern) {
		t.Errorf("bad bit err = %v", err)
	}
}

func TestInbox(t *testing.T) {
	msgs := []Msg{
		{From: 0, To: 1, Payload: "a"},
		{From: 1, To: 0, Payload: "b"},
		{From: 0, To: 1, Payload: "c"},
	}
	inbox, err := Inbox(msgs, "deliver:101", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox) != 2 || inbox[0] != "a" || inbox[1] != "c" {
		t.Fatalf("inbox = %v, want [a c]", inbox)
	}
	inbox, err = Inbox(msgs, "deliver:101", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox) != 0 {
		t.Fatalf("agent 0 inbox = %v, want empty (its message was lost)", inbox)
	}
	if _, err := Inbox(msgs, "nope", 1); !errors.Is(err, ErrBadPattern) {
		t.Fatalf("bad pattern err = %v", err)
	}
}

func TestIsPatternAndString(t *testing.T) {
	if !IsPattern("deliver:01") || IsPattern("other") {
		t.Error("IsPattern wrong")
	}
	m := Msg{From: 0, To: 1, Payload: "hi"}
	if got := m.String(); got != `0→1:"hi"` {
		t.Errorf("Msg.String = %q", got)
	}
}

// TestPatternsTableShared: the distribution depends only on the message
// count, so a Net (and every copy of it) hands out one table per count,
// equal to a fresh enumeration.
func TestPatternsTableShared(t *testing.T) {
	n := MustNew(ratutil.R(63, 127))
	copied := n
	first := n.Patterns(twoMsgs())
	other := copied.Patterns([]Msg{{From: 1, To: 0, Payload: "x"}, {From: 0, To: 1, Payload: "y"}})
	if &first[0] != &other[0] {
		t.Error("two calls with two messages built two tables")
	}
	fresh := n.buildPatterns(2)
	if len(first) != len(fresh) {
		t.Fatalf("table has %d patterns, fresh enumeration %d", len(first), len(fresh))
	}
	for i := range fresh {
		if first[i].Value != fresh[i].Value || !ratutil.Eq(first[i].Pr, fresh[i].Pr) {
			t.Errorf("pattern %d = %s@%s, fresh %s@%s", i,
				first[i].Value, first[i].Pr.RatString(), fresh[i].Value, fresh[i].Pr.RatString())
		}
	}
	if three := n.Patterns(make([]Msg, 3)); len(three) != 8 {
		t.Errorf("three messages: %d patterns, want 8", len(three))
	}
}

// TestPatternsConcurrent: goroutines sharing one Net (as the sampler and
// parallel unfolds share a model) race to build and read its tables;
// run under -race, and every caller must see the same exact tables.
func TestPatternsConcurrent(t *testing.T) {
	n := MustNew(ratutil.R(1, 10))
	const workers = 8
	got := make([][][]protocol.Weighted[string], workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 6; k >= 0; k-- {
				got[w] = append(got[w], n.Patterns(make([]Msg, (k+w)%7)))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, pats := range got[w] {
			k := (6 - i + w) % 7
			want := n.buildPatterns(k)
			if len(pats) != len(want) {
				t.Fatalf("worker %d, %d messages: %d patterns, want %d", w, k, len(pats), len(want))
			}
			for j := range want {
				if pats[j].Value != want[j].Value || !ratutil.Eq(pats[j].Pr, want[j].Pr) {
					t.Fatalf("worker %d, %d messages: pattern %d differs", w, k, j)
				}
			}
		}
	}
}
