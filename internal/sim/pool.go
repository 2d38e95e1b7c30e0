package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// event kinds in the DES queue. Submissions are not events: they stream from
// a cursor over the workload, keeping the heap O(running jobs) deep.
type evKind int

const (
	evComplete evKind = iota
	evKick            // a rescale gap expired: re-run the scheduling pass
)

// evKey holds exactly the fields the heap comparator reads — time and push
// order — packed into a dense 16-byte record so sift operations stream keys
// through the cache instead of chasing per-event pointers.
type evKey struct {
	at  float64
	ord int64 // FIFO tie-break for equal timestamps
}

// before orders keys by time, then push order.
func (k evKey) before(o evKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.ord < o.ord
}

// evPayload is the non-comparison half of an event, swapped in lockstep
// with its key and only read when the event is popped.
type evPayload struct {
	job  *simJob
	seq  int64 // completion-event validity token
	kind evKind
}

// eventHeap is a hand-rolled struct-of-arrays binary min-heap: keys and
// payloads live in parallel backing arrays and events are plain values, so
// arming an event is an append (no per-event allocation, no recycling pool,
// nothing to alias) and the sift loops compare dense keys without pulling
// payload bytes into the cache. container/heap would cost an interface call
// per comparison on the simulator's hottest path.
type eventHeap struct {
	keys []evKey
	pays []evPayload
}

func (h *eventHeap) len() int       { return len(h.keys) }
func (h *eventHeap) topAt() float64 { return h.keys[0].at }

func (h *eventHeap) push(k evKey, p evPayload) {
	h.keys = append(h.keys, k)
	h.pays = append(h.pays, p)
	i := len(h.keys) - 1
	for i > 0 {
		par := (i - 1) / 2
		if !h.keys[i].before(h.keys[par]) {
			break
		}
		h.keys[i], h.keys[par] = h.keys[par], h.keys[i]
		h.pays[i], h.pays[par] = h.pays[par], h.pays[i]
		i = par
	}
}

func (h *eventHeap) pop() (evKey, evPayload) {
	k, p := h.keys[0], h.pays[0]
	n := len(h.keys) - 1
	h.keys[0], h.pays[0] = h.keys[n], h.pays[n]
	h.pays[n] = evPayload{} // drop the job pointer: popped slots pin nothing
	h.keys, h.pays = h.keys[:n], h.pays[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.keys[r].before(h.keys[c]) {
			c = r
		}
		if !h.keys[c].before(h.keys[i]) {
			break
		}
		h.keys[i], h.keys[c] = h.keys[c], h.keys[i]
		h.pays[i], h.pays[c] = h.pays[c], h.pays[i]
		i = c
	}
	return k, p
}

// RunTasks executes n independent tasks on a bounded worker pool and returns
// the error of the lowest-indexed failing task (so the reported failure does
// not depend on goroutine scheduling). workers <= 0 means runtime.NumCPU();
// workers == 1 runs sequentially in the calling goroutine, which is the
// reference path parallel runs must match bit-for-bit. Otherwise the calling
// goroutine works as one of the workers, so a call starts workers-1
// goroutines (the federation rebalancer calls it once per round).
//
// Tasks must be independent and deterministic in their index: each task
// derives everything it needs (RNG seed included) from i, never from shared
// mutable state, which is what makes the two paths equivalent.
func RunTasks(n, workers int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = task(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
