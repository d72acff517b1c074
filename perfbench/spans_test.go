package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func sp(start, end time.Duration) span { return span{Start: start, End: end} }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	const ms = time.Millisecond
	parent := sp(0, 100*ms)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"disjoint", []span{sp(10*ms, 20*ms), sp(30*ms, 50*ms)}, 70 * ms},
		// Parallel legs: the union counts once, not the sum.
		{"overlapping legs", []span{sp(10*ms, 60*ms), sp(20*ms, 80*ms)}, 30 * ms},
		{"nested", []span{sp(10*ms, 90*ms), sp(20*ms, 30*ms)}, 20 * ms},
		{"touching", []span{sp(10*ms, 20*ms), sp(20*ms, 30*ms)}, 80 * ms},
		{"unsorted chain", []span{sp(50*ms, 70*ms), sp(10*ms, 30*ms), sp(25*ms, 55*ms)}, 40 * ms},
		// Children sticking out of the parent only count inside it.
		{"clipped", []span{sp(-10*ms, 10*ms), sp(95*ms, 120*ms)}, 85 * ms},
		{"outside entirely", []span{sp(200*ms, 300*ms)}, 100 * ms},
		{"covering", []span{sp(-5*ms, 105*ms)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTracerReplaysBackToBack(t *testing.T) {
	epoch := time.Now()
	tr := newTracer(epoch)
	req := tr.add(0, 7, "simrankd.http.topk", epoch.Add(time.Millisecond), epoch.Add(11*time.Millisecond))
	a := tr.replay(req, "query.single_source", 3*time.Millisecond)
	b := tr.replay(req, "query.rank", 2*time.Millisecond)
	sa, sb := tr.get(a), tr.get(b)
	if sa.Start != time.Millisecond || sa.End != 4*time.Millisecond || sb.Start != sa.End || sb.End != 6*time.Millisecond {
		t.Fatalf("replays laid out at [%v,%v) and [%v,%v)", sa.Start, sa.End, sb.Start, sb.End)
	}
	if sa.Req != 7 || !sa.Replay || sa.Parent != req {
		t.Fatalf("replay span %+v", sa)
	}
	if got := tr.selfTime(req); got != 5*time.Millisecond {
		t.Fatalf("self time %v, want 5ms", got)
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(raw, &back); err != nil || len(back) != 3 {
		t.Fatalf("read back %d spans: %v", len(back), err)
	}

	var none *tracer
	if id := none.add(0, 1, "x", epoch, epoch); id != 0 {
		t.Fatal("a nil tracer recorded a span")
	}
}
