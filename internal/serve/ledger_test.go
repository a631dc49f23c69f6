package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// scriptedBackend plays a seeded script, one step per batch: answer at
// once, answer after 1-3ms, fail the batch, or panic. Every batch reports
// stage times — reliable and qualifier time too, whether or not a
// full-pipeline rider came along.
type scriptedBackend struct {
	rng *rand.Rand // the flusher is the only caller
}

func (b *scriptedBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	res, _, err := b.ClassifyBatchPipelined(imgs, nil)
	return res, err
}

func (b *scriptedBackend) ClassifyBatchPipelined(imgs []*tensor.Tensor, _ []core.Pipeline) ([]core.Result, core.StageTimes, error) {
	st := core.StageTimes{
		Reliable:  time.Duration(b.rng.Intn(1000)),
		Qualifier: time.Duration(b.rng.Intn(1000)),
		CNN:       time.Duration(1 + b.rng.Intn(1000)),
	}
	switch step := b.rng.Intn(20); {
	case step < 2:
		return nil, st, errors.New("scripted backend error")
	case step < 3:
		panic("scripted backend panic")
	case step < 8:
		time.Sleep(time.Duration(1+b.rng.Intn(3)) * time.Millisecond)
	}
	return make([]core.Result, len(imgs)), st, nil
}

// outcomes is what submitters saw, per class.
type outcomes struct {
	completed, rejected, expired, failed, degraded [NumClasses]uint64
}

// TestLedgerRandomSchedule drives a Scheduler over scriptedBackend with
// seeded random classes, deadlines (some already expired), and
// cancellations that land while requests are queued or mid-batch, while
// another goroutine snapshots Stats. It checks the ledger's invariants:
// every counter of every snapshot is non-decreasing and every snapshot's
// aggregate is the sum of its classes; once every Submit has returned each
// class's Submitted resolves into Expired + ExpiredDispatched + Completed +
// Failed and each outcome count equals what the submitters observed; after
// Shutdown the batch histogram accounts for every dispatched image.
func TestLedgerRandomSchedule(t *testing.T) {
	const submitters, perSubmitter = 8, 60
	var exercised outcomes
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s, err := New(&scriptedBackend{rng: rand.New(rand.NewSource(seed))}, Config{
				MaxBatch: 4, MaxDelay: 500 * time.Microsecond, QueueSize: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			snapshots := make(chan int)
			go func() {
				n, prev := 0, s.Stats()
				defer func() { snapshots <- n }()
				for {
					select {
					case <-stop:
						return
					default:
					}
					st := s.Stats()
					n++
					checkAggregateIsClassSum(t, "snapshot", st)
					if err := nonDecreasing(prev, st); err != nil {
						t.Error(err)
						return
					}
					prev = st
				}
			}()

			var mu sync.Mutex
			var seen outcomes
			var wg sync.WaitGroup
			img := tensor.MustNew(1, 1, 1)
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(rng *rand.Rand) {
					defer wg.Done()
					var mine outcomes
					for i := 0; i < perSubmitter; i++ {
						class := Classes[rng.Intn(NumClasses)]
						var ctx context.Context
						var cancel context.CancelFunc
						switch mode := rng.Intn(10); mode {
						case 0: // expired before it is submitted
							ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
						case 1, 2:
							ctx, cancel = context.WithTimeout(context.Background(), time.Duration(rng.Intn(3000))*time.Microsecond)
						default:
							ctx, cancel = context.WithCancel(context.Background())
							if mode == 3 { // cancelled while queued or mid-batch
								time.AfterFunc(time.Duration(rng.Intn(2000))*time.Microsecond, cancel)
							}
						}
						_, tm, err := s.SubmitTraced(ctx, img, class)
						cancel()
						switch {
						case err == nil:
							mine.completed[class]++
							if tm.Degraded {
								mine.degraded[class]++
							}
						case errors.Is(err, ErrQueueFull):
							mine.rejected[class]++
						case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
							mine.expired[class]++
						default:
							mine.failed[class]++
						}
					}
					mu.Lock()
					seen.add(mine)
					mu.Unlock()
				}(rand.New(rand.NewSource(seed*100 + int64(g))))
			}
			wg.Wait()
			// Every Submit has returned, so every outcome is already booked.
			booked := s.Stats()
			shutdownOK(t, s)
			close(stop)
			if n := <-snapshots; n == 0 {
				t.Error("no concurrent snapshot was taken")
			}
			exercised.add(seen)
			t.Logf("submitters saw %+v", seen)

			for _, c := range Classes {
				cs := booked.Class(c)
				if resolved := cs.Expired + cs.ExpiredDispatched + cs.Completed + cs.Failed; cs.Submitted != resolved {
					t.Errorf("%v: submitted %d, resolved %d", c, cs.Submitted, resolved)
				}
				if cs.Completed != seen.completed[c] || cs.Rejected != seen.rejected[c] ||
					cs.Expired+cs.ExpiredDispatched != seen.expired[c] || cs.Failed != seen.failed[c] {
					t.Errorf("%v: ledger completed %d rejected %d expired %d+%d failed %d; submitters saw %d / %d / %d / %d",
						c, cs.Completed, cs.Rejected, cs.Expired, cs.ExpiredDispatched, cs.Failed,
						seen.completed[c], seen.rejected[c], seen.expired[c], seen.failed[c])
				}
				if cs.Degraded < seen.degraded[c] || c != ClassBudget && cs.Degraded != 0 {
					t.Errorf("%v: degraded %d, submitters saw %d degraded completions", c, cs.Degraded, seen.degraded[c])
				}
			}
			final := s.Stats()
			var images uint64
			for i, n := range final.BatchHist {
				images += uint64(i+1) * n
			}
			if images != final.Dispatched() {
				t.Errorf("batch histogram holds %d images, ledger dispatched %d", images, final.Dispatched())
			}
		})
	}
	// The script must have reached every outcome, or the checks above
	// proved less than they claim.
	for name, v := range map[string][NumClasses]uint64{
		"completed": exercised.completed, "rejected": exercised.rejected, "expired": exercised.expired,
		"failed": exercised.failed, "degraded": exercised.degraded,
	} {
		if v == ([NumClasses]uint64{}) {
			t.Errorf("no request was %s: the schedule did not exercise that path", name)
		}
	}
}

func (o *outcomes) add(p outcomes) {
	for c := range o.completed {
		o.completed[c] += p.completed[c]
		o.rejected[c] += p.rejected[c]
		o.expired[c] += p.expired[c]
		o.failed[c] += p.failed[c]
		o.degraded[c] += p.degraded[c]
	}
}

// nonDecreasing reports the first counter that moved backwards between two
// snapshots of one scheduler.
func nonDecreasing(prev, cur Stats) error {
	counters := func(s Stats) []uint64 {
		out := []uint64{s.Batches, s.BackendHist.Count(), uint64(s.BackendBusy)}
		out = append(out, s.BatchHist...)
		ledgers := []Counts{s.Counts}
		for _, cs := range s.Classes {
			ledgers = append(ledgers, cs.Counts)
		}
		for _, c := range ledgers {
			out = append(out, c.Submitted, c.Rejected, c.Expired, c.ExpiredDispatched, c.Completed, c.Failed,
				c.Degraded, c.LatencyHist.Count(), c.QueueHist.Count(),
				uint64(c.StageReliable), uint64(c.StageQualifier), uint64(c.StageCNN))
		}
		return out
	}
	p, c := counters(prev), counters(cur)
	for i := range p {
		if c[i] < p[i] {
			return fmt.Errorf("counter %d went backwards: %d -> %d", i, p[i], c[i])
		}
	}
	return nil
}
