package audit

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// openViewLog returns an in-memory log, or a durable one whose
// background checkpointer wake returns, closed at the end of the test.
func openViewLog(t *testing.T, durable bool) (*Log, func()) {
	t.Helper()
	if !durable {
		return NewLog("s"), func() {}
	}
	d, _, err := OpenDurable("s", t.TempDir(), DurableOptions{NoSync: true, OnErr: func(err error) { t.Error(err) }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Error(err)
		}
	})
	return d.Log(), func() {
		select {
		case d.wake <- struct{}{}:
		default:
		}
	}
}

// sameView reports whether two Groups results share their storage.
func sameView(a, b []Group) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestGroupsViewMatchesMerge drives a seeded random mix of appends,
// retention (Expire, Rotate, Reset), background checkpoint cuts and
// Groups reads. At every quiescent point Groups equals a fresh
// MergeGroups, a Groups call after an Append includes it, two reads
// with no change between them share one view, and a checkpoint cut
// keeps the view.
func TestGroupsViewMatchesMerge(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "durable"}[durable], func(t *testing.T) {
			l, wake := openViewLog(t, durable)
			rng := rand.New(rand.NewSource(1))
			pool := genEntries(3000)
			next := 0
			check := func(step int, what string) []Group {
				t.Helper()
				got := l.Groups()
				if want := MergeGroups(l); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%s): Groups() differs from MergeGroups(l):\n got %+v\nwant %+v", step, what, got, want)
				}
				total := 0
				for _, g := range got {
					total += g.Total
				}
				if total != l.Len() {
					t.Fatalf("step %d (%s): Groups() holds %d rows, the log %d", step, what, total, l.Len())
				}
				return got
			}
			for step := 0; step < 400; step++ {
				var what string
				switch op := rng.Intn(20); {
				case op < 10:
					n := 1 + rng.Intn(20)
					batch := make([]Entry, n)
					for i := range batch {
						batch[i] = pool[next%len(pool)]
						next++
					}
					what = fmt.Sprintf("append %d", n)
					if err := l.Append(batch...); err != nil {
						t.Fatal(err)
					}
				case op < 13:
					what = "expire"
					l.Expire(t0.Add(time.Duration(rng.Intn(120))*time.Minute), time.Time{})
				case op < 16:
					what = "rotate"
					l.Rotate(t0.Add(time.Duration(rng.Intn(120)) * time.Minute))
				case op < 17:
					what = "reset"
					l.Reset()
				default:
					what = "background cut"
					wake()
				}
				before := check(step, what)
				if again := l.Groups(); !sameView(before, again) {
					t.Fatalf("step %d (%s): a second read with no change merged again", step, what)
				}
			}
			if durable {
				before := l.Groups()
				if err := l.cold.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if after := l.Groups(); !sameView(before, after) {
					t.Fatal("a checkpoint cut invalidated the view")
				}
				check(-1, "checkpoint")
			}
		})
	}
}

// TestGroupsViewConcurrent runs Groups readers against appends,
// retention and (durable) background cuts. Each reader checks that
// every view it gets is internally consistent; each writer checks that
// a Groups call after its Append returned counts every row it wrote.
// Under -race it also checks that no published view is written.
func TestGroupsViewConcurrent(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "durable"}[durable], func(t *testing.T) {
			l, wake := openViewLog(t, durable)
			old := genEntries(2000)
			if err := l.Append(old...); err != nil {
				t.Fatal(err)
			}
			const writers, per = 2, 300
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Every row is a practice row newer than any retention
					// cutoff, in a group of its own writer.
					data := fmt.Sprintf("writer-%d", w)
					for i := 1; i <= per; i++ {
						e := Entry{Time: t0.Add(1000 * time.Hour), Op: Allow, Status: Exception,
							User: fmt.Sprintf("u%d", i%7), Data: data, Purpose: "treatment", Authorized: "nurse"}
						if err := l.Append(e); err != nil {
							t.Error(err)
							return
						}
						total := 0
						for _, g := range l.Groups() {
							if g.Data == data {
								total += g.Total
							}
						}
						if total != i {
							t.Errorf("%s: Groups after append %d counts %d rows", data, i, total)
							return
						}
					}
				}(w)
			}
			stop := make(chan struct{})
			var others sync.WaitGroup
			loop := func(f func(i int)) {
				others.Add(1)
				go func() {
					defer others.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
							f(i)
						}
					}
				}()
			}
			loop(func(i int) {
				switch i % 4 {
				case 0:
					l.Expire(t0.Add(time.Duration(i%300)*time.Minute), time.Time{})
				case 1:
					l.Rotate(t0.Add(time.Duration(i%200) * time.Minute))
				case 2:
					wake()
				default:
					if err := l.Append(old[i%len(old) : i%len(old)+1]...); err != nil {
						t.Error(err)
					}
				}
			})
			for r := 0; r < 2; r++ {
				loop(func(int) {
					for _, g := range l.Groups() {
						n := 0
						for _, c := range g.Users {
							n += c
						}
						if n != g.Practice || len(g.Users) != g.PracticeUsers || len(g.Days) > g.Practice || g.Practice > g.Total {
							t.Errorf("inconsistent group %+v", g)
							return
						}
					}
				})
			}
			wg.Wait()
			close(stop)
			others.Wait()
			if got, want := l.Groups(), MergeGroups(l); !reflect.DeepEqual(got, want) {
				t.Fatalf("Groups() differs from MergeGroups(l) at rest:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// deepCorpus returns n entries in time order over few groups with
// many users each, the shape of the hospital simulator's log (13
// groups, 750 practice users over 5 practice groups): 15 groups over
// 1000 users.
func deepCorpus(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Time:       base.Add(time.Duration(i) * 40 * time.Second),
			Op:         Op(rng.Intn(2)),
			User:       fmt.Sprintf("user-%d", rng.Intn(1000)),
			Data:       fmt.Sprintf("data-%d", rng.Intn(5)),
			Purpose:    fmt.Sprintf("purpose-%d", rng.Intn(3)),
			Authorized: "nurse",
			Status:     Status(rng.Intn(2)),
			Site:       "hospital",
		}
	}
	return out
}

// groupsSink keeps the benchmarked reads live.
var groupsSink []Group

// BenchmarkGroups reads the merged group view of an in-memory log:
// "hit" with the index unchanged since the view was published,
// "rebuild" with the view discarded before each read, which is the
// merge every read paid before the view existed. "wide" holds the cold
// corpus (1440 groups of about 33 users), "deep" the deep corpus (15
// groups of about 1000 users).
func BenchmarkGroups(b *testing.B) {
	for _, c := range []struct {
		name   string
		corpus func(int, int64) []Entry
	}{{"wide", coldCorpus}, {"deep", deepCorpus}} {
		l := NewLog("hospital")
		if err := l.Append(c.corpus(coldCorpusSize(), 1)...); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/hit", func(b *testing.B) {
			l.Groups()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				groupsSink = l.Groups()
			}
		})
		b.Run(c.name+"/rebuild", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.view.Store(nil)
				groupsSink = l.Groups()
			}
		})
	}
}
