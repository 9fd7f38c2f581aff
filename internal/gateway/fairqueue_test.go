package gateway

import (
	"sync"
	"testing"
	"time"
)

func nopJob() job { return job{} }

// Weighted round robin: with both FIFOs saturated, a weight-3 tenant
// gets three serves per round to a weight-1 tenant's one.
func TestFairQueueWeightedShares(t *testing.T) {
	fq := newFairQueue()
	fq.addTenant("gold", 3, 100)
	fq.addTenant("free", 1, 100)
	for i := 0; i < 40; i++ {
		if !fq.push("gold", nopJob()) || !fq.push("free", nopJob()) {
			t.Fatal("push within depth refused")
		}
	}
	served := map[string]int{}
	// Tag jobs by draining 40 pops and watching which queue shrank.
	for i := 0; i < 40; i++ {
		gBefore, fBefore := fq.depthOf("gold"), fq.depthOf("free")
		if _, ok := fq.pop(); !ok {
			t.Fatal("pop on non-empty queue returned closed")
		}
		switch {
		case fq.depthOf("gold") == gBefore-1:
			served["gold"]++
		case fq.depthOf("free") == fBefore-1:
			served["free"]++
		default:
			t.Fatal("pop served no tenant")
		}
	}
	if served["gold"] != 30 || served["free"] != 10 {
		t.Fatalf("served %v over 40 pops, want gold=30 free=10 (3:1 weights)", served)
	}
}

// A noisy tenant fills its own FIFO and gets push=false (the caller
// SHEDs); a quiet tenant keeps pushing.
func TestFairQueueDepthIsolation(t *testing.T) {
	fq := newFairQueue()
	fq.addTenant("noisy", 1, 4)
	fq.addTenant("quiet", 1, 4)
	for i := 0; i < 4; i++ {
		if !fq.push("noisy", nopJob()) {
			t.Fatalf("push %d within depth refused", i)
		}
	}
	if fq.push("noisy", nopJob()) {
		t.Fatal("push past depth admitted")
	}
	if !fq.push("quiet", nopJob()) {
		t.Fatal("quiet tenant starved by noisy tenant's backlog")
	}
}

func TestFairQueueUnknownTenant(t *testing.T) {
	fq := newFairQueue()
	fq.addTenant("a", 1, 4)
	if fq.push("ghost", nopJob()) {
		t.Fatal("push for unregistered tenant admitted")
	}
}

// pop blocks while open-and-empty, serves the backlog after close,
// and only then reports closed.
func TestFairQueueCloseDrains(t *testing.T) {
	fq := newFairQueue()
	fq.addTenant("a", 1, 10)
	for i := 0; i < 3; i++ {
		fq.push("a", nopJob())
	}
	fq.close()
	for i := 0; i < 3; i++ {
		if _, ok := fq.pop(); !ok {
			t.Fatalf("pop %d after close dropped an admitted job", i)
		}
	}
	if _, ok := fq.pop(); ok {
		t.Fatal("pop past the drained backlog returned a job")
	}
	if fq.push("a", nopJob()) {
		t.Fatal("push after close admitted")
	}
}

// close must wake every blocked pop (workers exit the drain).
func TestFairQueueCloseWakesBlockedPop(t *testing.T) {
	fq := newFairQueue()
	fq.addTenant("a", 1, 10)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := fq.pop(); !ok {
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	fq.close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked pops not woken by close")
	}
}

// Concurrent producers and consumers under the race detector: every
// admitted job is served exactly once.
func TestFairQueueConcurrent(t *testing.T) {
	fq := newFairQueue()
	fq.addTenant("x", 2, 1000)
	fq.addTenant("y", 1, 1000)
	var served sync.WaitGroup
	var admitted int64
	var mu sync.Mutex

	var consumers sync.WaitGroup
	for i := 0; i < 4; i++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				if _, ok := fq.pop(); !ok {
					return
				}
				served.Done()
			}
		}()
	}
	var producers sync.WaitGroup
	for _, name := range []string{"x", "y"} {
		producers.Add(1)
		go func(name string) {
			defer producers.Done()
			for i := 0; i < 500; i++ {
				served.Add(1)
				if fq.push(name, job{}) {
					mu.Lock()
					admitted++
					mu.Unlock()
				} else {
					served.Done()
				}
			}
		}(name)
	}
	producers.Wait()
	served.Wait() // every admitted job ran
	fq.close()
	consumers.Wait()
	mu.Lock()
	defer mu.Unlock()
	if admitted == 0 {
		t.Fatal("no jobs admitted")
	}
}

// A tenant's FIFO is a ring over its depth: jobs come out in arrival
// order across the wrap, and a full ring refuses until a pop frees a
// slot.
func TestFairQueueFIFOAcrossWrap(t *testing.T) {
	fq := newFairQueue()
	fq.addTenant("a", 1, 4)
	push := func(id uint32) bool { return fq.push("a", job{id: id}) }
	for id := uint32(1); id <= 4; id++ {
		if !push(id) {
			t.Fatalf("push %d within depth refused", id)
		}
	}
	if push(5) {
		t.Fatal("push past depth admitted")
	}
	for _, id := range []uint32{1, 2} {
		if j, _ := fq.pop(); j.id != id {
			t.Fatalf("pop = job %d, want %d", j.id, id)
		}
	}
	for id := uint32(5); id <= 6; id++ {
		if !push(id) {
			t.Fatalf("push %d after two pops refused", id)
		}
	}
	for _, id := range []uint32{3, 4, 5, 6} {
		if j, _ := fq.pop(); j.id != id {
			t.Fatalf("pop = job %d, want %d", j.id, id)
		}
	}
	if d := fq.depthOf("a"); d != 0 {
		t.Fatalf("depth %d after draining, want 0", d)
	}
}
