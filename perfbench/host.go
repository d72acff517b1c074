package main

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// hostSampler watches the host over one measured phase: the process's
// resident set, so the set-ups and the gates' reference indexes outside
// the phase do not count, and the host's CPU counters, whose steal
// counter tells how much CPU time the hypervisor took away meanwhile.
type hostSampler struct {
	stop chan struct{}
	done chan hostRecord
}

// hostRecord is what a sampler saw.
type hostRecord struct {
	rss        []float64 // MiB, every rssInterval
	cpu0, cpu1 []uint64  // CPU counters at the start and the end
	err        error
}

// The resident set is sampled every rssInterval and summarized per
// rssWindow samples.
const (
	rssInterval = 10 * time.Millisecond
	rssWindow   = 200
)

// startHost collects garbage left by the set-up and returns it to the
// system, then samples until finish.
func startHost() (*hostSampler, error) {
	debug.FreeOSMemory()
	cpu0, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	s := &hostSampler{stop: make(chan struct{}), done: make(chan hostRecord, 1)}
	go func() {
		rec := hostRecord{cpu0: cpu0}
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			mb, err := rssMB()
			if err != nil {
				s.done <- hostRecord{err: err}
				return
			}
			rec.rss = append(rec.rss, mb)
			select {
			case <-s.stop:
				rec.cpu1, rec.err = readCPUTicks()
				s.done <- rec
				return
			case <-tick.C:
			}
		}
	}()
	return s, nil
}

// finish stops the sampler and returns what it saw.
func (s *hostSampler) finish() (hostRecord, error) {
	close(s.stop)
	rec := <-s.done
	return rec, rec.err
}

// peakRSS is the median of the resident set's window peaks, in MiB.
func (r hostRecord) peakRSS() float64 { return windowPeaks(r.rss, rssWindow) }

// peakRSSUntil is peakRSS over the samples of the first d of sampling.
func (r hostRecord) peakRSSUntil(d time.Duration) float64 {
	return windowPeaks(r.rss[:min(len(r.rss), int(d/rssInterval)+1)], rssWindow)
}

// steal is the share of the host's CPU time the hypervisor gave to
// other guests while sampling. On a shared host it explains latency that
// moved without the code changing.
func (r hostRecord) steal() float64 { return stealFrac(r.cpu0, r.cpu1) }

// windowPeaks cuts samples into consecutive windows of size w (the last
// one takes the remainder, or all of a short series) and returns the
// median of the windows' maxima: the peak the process keeps returning
// to, not one garbage-collection cycle that happened to run late.
func windowPeaks(samples []float64, w int) float64 {
	var peaks []float64
	for lo := 0; lo < len(samples); {
		hi := lo + w
		if len(samples)-hi < w {
			hi = len(samples)
		}
		p := samples[lo]
		for _, x := range samples[lo:hi] {
			p = max(p, x)
		}
		peaks = append(peaks, p)
		lo = hi
	}
	return median(peaks)
}

// readCPUTicks reads the host-wide CPU time counters (user, nice,
// system, idle, iowait, irq, softirq, steal, ...) from /proc/stat.
func readCPUTicks() ([]uint64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil, errors.New("malformed /proc/stat")
	}
	ticks := make([]uint64, len(fields)-1)
	for i, f := range fields[1:] {
		if ticks[i], err = strconv.ParseUint(f, 10, 64); err != nil {
			return nil, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	return ticks, nil
}

// stealFrac is the share of CPU time between two readings that the
// hypervisor gave to other guests (the steal counter, the eighth).
func stealFrac(a, b []uint64) float64 {
	var total uint64
	for i := 0; i < 8; i++ { // the guest counters after steal repeat user and nice
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0
	}
	return float64(b[7]-a[7]) / float64(total)
}

// rssMB reads the process's resident set in MiB from /proc/self/statm.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, errors.New("malformed /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
