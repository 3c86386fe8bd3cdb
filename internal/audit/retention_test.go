package audit

import (
	"math"
	"testing"
	"time"
)

func retentionLog(t *testing.T) *Log {
	t.Helper()
	l := NewLog("ward")
	for i := 0; i < 10; i++ {
		st := Regular
		if i%3 == 0 {
			st = Exception
		}
		if err := l.Append(entry(t0.Add(time.Duration(i)*24*time.Hour), "u", "d", "p", "r", st)); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestExpireUniform(t *testing.T) {
	l := retentionLog(t)
	dropped := l.Expire(t0.Add(5*24*time.Hour), time.Time{})
	if dropped != 5 || l.Len() != 5 {
		t.Fatalf("dropped %d, len %d", dropped, l.Len())
	}
	for _, e := range l.Snapshot() {
		if e.Time.Before(t0.Add(5 * 24 * time.Hour)) {
			t.Fatalf("stale entry survived: %v", e)
		}
	}
}

func TestExpireKeepsRecentExceptions(t *testing.T) {
	l := retentionLog(t)
	// Expire everything before day 8, but keep exception entries back
	// to day 2 (they are refinement input).
	dropped := l.Expire(t0.Add(8*24*time.Hour), t0.Add(2*24*time.Hour))
	// Days 0..7 dropped except exception days 3, 6 (day 0 is an
	// exception but older than the exception cutoff).
	if dropped != 6 {
		t.Fatalf("dropped %d, want 6: %v", dropped, l.Snapshot())
	}
	for _, e := range l.Snapshot() {
		old := e.Time.Before(t0.Add(8 * 24 * time.Hour))
		if old && e.Status != Exception {
			t.Errorf("old regular entry survived: %v", e)
		}
	}
}

func TestRotate(t *testing.T) {
	l := retentionLog(t)
	rotated := l.Rotate(t0.Add(4 * 24 * time.Hour))
	if len(rotated) != 4 || l.Len() != 6 {
		t.Fatalf("rotated %d, remaining %d", len(rotated), l.Len())
	}
	for _, e := range rotated {
		if !e.Time.Before(t0.Add(4 * 24 * time.Hour)) {
			t.Errorf("young entry rotated: %v", e)
		}
	}
	if got := l.Rotate(t0); len(got) != 0 {
		t.Errorf("second rotate moved %d entries", len(got))
	}
}

func TestTopCounts(t *testing.T) {
	entries := []Entry{
		entry(t0, "Amy", "referral", "treatment", "nurse", Regular),
		entry(t0, "amy", "referral", "billing", "nurse", Regular),
		entry(t0, "bob", "address", "billing", "clerk", Regular),
	}
	data := TopData(entries, 0)
	if len(data) != 2 || data[0].Value != "referral" || data[0].N != 2 {
		t.Errorf("TopData = %v", data)
	}
	if got := TopData(entries, 1); len(got) != 1 {
		t.Errorf("limit ignored: %v", got)
	}
	if data[0].String() != "referral: 2" {
		t.Errorf("Count.String = %q", data[0].String())
	}
}

func TestExceptionRateByRole(t *testing.T) {
	entries := []Entry{
		entry(t0, "a", "d", "p", "nurse", Exception),
		entry(t0, "b", "d", "p", "nurse", Regular),
		entry(t0, "c", "d", "p", "nurse", Regular),
		entry(t0, "d", "d", "p", "clerk", Regular),
	}
	rates := ExceptionRateByRole(entries)
	if math.Abs(rates["nurse"]-1.0/3.0) > 1e-9 {
		t.Errorf("nurse rate = %v", rates["nurse"])
	}
	if rates["clerk"] != 0 {
		t.Errorf("clerk rate = %v", rates["clerk"])
	}
}
