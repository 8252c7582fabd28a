package metrics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBindAtomicExportsTheOwnersField: an atomic field bound to a
// counter or gauge cell exports what Load reads, a negative gauge
// included, and the cell keeps one home as Bind's does.
func TestBindAtomicExportsTheOwnersField(t *testing.T) {
	var hits atomic.Uint64
	var depth atomic.Int64
	r := New()
	c := r.Counters("hits_total", "hits", "class")
	c.BindAtomic(&hits, Name("derive"))
	c.BindAtomic(&hits, Name("derive"))
	r.Gauges("depth", "depth").BindAtomic(&depth)
	hits.Add(41)
	depth.Store(-3)
	if got := r.CounterValue("hits_total", L("class", "derive")); got != 41 {
		t.Fatalf("CounterValue = %d, want 41", got)
	}
	if got := r.GaugeValue("depth"); got != -3 {
		t.Fatalf("GaugeValue = %d, want -3", got)
	}
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"depth -3\n", `hits_total{class="derive"} 41` + "\n"} {
		if !strings.Contains(b.String(), line) {
			t.Fatalf("export lacks %q:\n%s", line, b.String())
		}
	}
	for name, fn := range map[string]func(){
		"With on an atomic cell":       func() { c.With(Name("derive")) },
		"BindAtomic to a second field": func() { c.BindAtomic(new(atomic.Uint64), Name("derive")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestBindAtomicConcurrent: goroutines that add to atomic fields, and
// bind new cells, while others snapshot the registry — the service
// control plane's shape — race on nothing (run under -race), and the
// final export counts every add.
func TestBindAtomicConcurrent(t *testing.T) {
	const writers, adds = 4, 500
	r := New()
	fam := r.Counters("requests_total", "requests", "route")
	cells := make([]atomic.Uint64, writers)
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	for range 2 {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.Snapshot().WritePrometheus(new(strings.Builder))
			}
		}()
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fam.BindAtomic(&cells[w], Name(fmt.Sprintf("r%d", w)))
			for range adds {
				cells[w].Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()
	if got := r.SumCounter("requests_total"); got != writers*adds {
		t.Fatalf("SumCounter = %d, want %d", got, writers*adds)
	}
}

// TestSyncGaugeConcurrentAdd: a gauge field shared between goroutines
// and bound with BindAtomic reads back through the registry as the net
// of every concurrent add, while scrapes run beside the writers.
func TestSyncGaugeConcurrentAdd(t *testing.T) {
	var depth atomic.Int64
	r := New()
	r.Gauges("depth", "depth").BindAtomic(&depth)
	stop := make(chan struct{})
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Snapshot().WritePrometheus(new(strings.Builder))
		}
	}()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 500 {
				depth.Add(1)
				depth.Add(-1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrape.Wait()
	if got := r.GaugeValue("depth"); got != 0 {
		t.Fatalf("gauge = %d, want 0 after balanced adds", got)
	}
}

// TestSyncGaugeSetMax: RaiseAtomic keeps the highest of concurrent
// raises, never lowers the field, and the bound cell exports it.
func TestSyncGaugeSetMax(t *testing.T) {
	var hw atomic.Int64
	r := New()
	r.Gauges("hw", "high water").BindAtomic(&hw)
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			RaiseAtomic(&hw, int64(w*100))
		}()
	}
	wg.Wait()
	if got := r.GaugeValue("hw"); got != 700 {
		t.Fatalf("gauge = %d, want 700 (RaiseAtomic high water)", got)
	}
	hw.Store(-5)
	RaiseAtomic(&hw, -10)
	if got := r.GaugeValue("hw"); got != -5 {
		t.Fatalf("RaiseAtomic lowered the gauge: %d", got)
	}
}
