package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aggview"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of d. It
// sorts a copy, so the caller's sample keeps its order.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// medianDur is percentile(d, 0.5).
func medianDur(d []time.Duration) time.Duration { return percentile(d, 0.5) }

// medianFloat returns the median of xs (0 when empty).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally counts attempted and failed operations across goroutines. A failed
// operation is one that returned an error or whose output did not match
// its reference.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	firstErr  []string
}

// check counts one operation; ok reports whether it succeeded. The first
// few failure descriptions are kept for the report.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
		t.mu.Lock()
		if len(t.firstErr) < 5 {
			t.firstErr = append(t.firstErr, fmt.Sprintf(format, args...))
		}
		t.mu.Unlock()
	}
	return ok
}

// errs returns the kept failure descriptions.
func (t *tally) errs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.firstErr...)
}

// heapPeak samples the Go heap's live-object bytes until stopped and keeps
// the largest value seen. runtime/metrics reads do not stop the world, so
// sampling every few milliseconds costs the clients nothing measurable.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapPeak collects garbage left by set-up, then starts sampling.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(readHeap())
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := readHeap(); v > h.peak.Load() {
					h.peak.Store(v)
				}
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit, and returns the peak
// in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	if v := readHeap(); v > h.peak.Load() {
		h.peak.Store(v)
	}
	return float64(h.peak.Load()) / (1 << 20)
}

// digest is an order-insensitive fingerprint of a result bag: the row
// count plus the wrapping sum of per-row hashes. Floats are rendered to 9
// significant digits before hashing, because SUM and AVG over doubles
// legitimately differ in the last ulp between plans that add in different
// orders; every other value compares exactly.
type digest struct {
	rows int
	sum  uint64
}

func bagDigest(rows [][]any) digest {
	d := digest{rows: len(rows)}
	var b strings.Builder
	for _, row := range rows {
		b.Reset()
		for j, v := range row {
			if j > 0 {
				b.WriteByte('\t')
			}
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&b, "%.9g", f)
			} else {
				fmt.Fprintf(&b, "%v", v)
			}
		}
		h := fnv.New64a()
		h.Write([]byte(b.String()))
		d.sum += h.Sum64()
	}
	return d
}

// timed runs fn and returns its duration.
func timed(fn func() error) (time.Duration, error) {
	t := time.Now()
	err := fn()
	return time.Since(t), err
}

// dirBytes sums the sizes of the regular files directly under dir (a data
// directory is flat: log segments and the checkpoint).
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// fsyncProbe writes and fsyncs one 4 KiB block in dir n times and returns
// the median fsync time, so a report shows the storage it ran on.
func fsyncProbe(dir string, n int) (time.Duration, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var lat []time.Duration
	for i := 0; i < n; i++ {
		buf[0] = byte(i)
		if _, err := f.WriteAt(buf, 0); err != nil {
			return 0, err
		}
		d, err := timed(f.Sync)
		if err != nil {
			return 0, err
		}
		lat = append(lat, d)
	}
	return medianDur(lat), f.Close()
}

// pagesOf is the number of page requests a query made to the buffer pool:
// misses plus hits. Unlike misses alone it is never zero for a query that
// reads a table, so it is comparable between a cold and a warm pool.
func pagesOf(io aggview.IOStats) int64 { return io.Reads + io.Hits }
