package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"oipsr/graph"
)

// TestAppliedEditsFollowSendOrder queues two edit batches due at the
// same instant on two connections, so either may reach the server first,
// and requires appliedEdits to list them in the order the server saw.
func TestAppliedEditsFollowSendOrder(t *testing.T) {
	var mu sync.Mutex
	var arrived []int // U of each batch's first edit, in arrival order
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/edges" {
			return
		}
		var req struct {
			Edits []struct{ U int } `json:"edits"`
		}
		b, _ := io.ReadAll(r.Body)
		if err := json.Unmarshal(b, &req); err != nil || len(req.Edits) == 0 {
			http.Error(w, "bad edits", http.StatusBadRequest)
			return
		}
		mu.Lock()
		arrived = append(arrived, req.Edits[0].U)
		mu.Unlock()
		time.Sleep(time.Millisecond) // hold the edit lock while the other waits
	}))
	defer srv.Close()

	for trial := 0; trial < 20; trial++ {
		mu.Lock()
		arrived = nil
		mu.Unlock()
		plan := []planned{
			{ID: 0, Fam: famEdit, Edits: []graph.Edit{{Op: graph.EditAdd, U: 10, V: 1}}},
			{ID: 1, Fam: famEdit, Edits: []graph.Edit{{Op: graph.EditAdd, U: 11, V: 1}}},
		}
		outs, _ := runLoad(loadConfig{Base: srv.URL, Conns: 2, Timeout: time.Second, Drain: time.Second}, plan)
		edits, err := appliedEdits(outs)
		if err != nil {
			t.Fatal(err)
		}
		if len(edits) != 2 || len(arrived) != 2 {
			t.Fatalf("trial %d: %d acknowledged edits, %d arrived", trial, len(edits), len(arrived))
		}
		for i, e := range edits {
			if e.P.Edits[0].U != arrived[i] {
				t.Fatalf("trial %d: applied order %d, %d; the server saw %v", trial, edits[0].P.ID, edits[1].P.ID, arrived)
			}
		}
	}
}

func TestAppliedEditsSortsBySend(t *testing.T) {
	plan := []planned{{ID: 0, Fam: famEdit}, {ID: 1, Fam: famSS}, {ID: 2, Fam: famEdit}, {ID: 3, Fam: famEdit}}
	outs := []outcome{
		{P: &plan[0], Status: http.StatusOK, Sent: 5 * time.Millisecond},
		{P: &plan[1], Status: http.StatusOK, Sent: 1 * time.Millisecond},
		{P: &plan[2], Status: http.StatusOK, Sent: 2 * time.Millisecond},
		{P: &plan[3], Unsent: true, Err: "abandoned"},
	}
	edits, err := appliedEdits(outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(edits) != 2 || edits[0].P.ID != 2 || edits[1].P.ID != 0 {
		t.Fatalf("applied edits %v, want ids 2 then 0", edits)
	}
	outs[3] = outcome{P: &plan[3], Err: "timeout"} // sent, never answered
	if _, err := appliedEdits(outs); err == nil {
		t.Fatal("an edit sent without an answer left the served graph unknown, but no error")
	}
}

// TestLoadStopsAboveBacklog overloads a slow server on the second rung
// and requires the generator to stop offering load there, returning the
// requests it offered as a prefix of the plan.
func TestLoadStopsAboveBacklog(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			time.Sleep(5 * time.Millisecond)
		}
	}))
	defer srv.Close()
	var plan []planned
	for i := 0; i < 10; i++ { // rung 0: 10 reads over 100 ms, well within capacity
		plan = append(plan, planned{ID: i, Fam: famSS, Sources: []int{0}, Due: time.Duration(i) * 10 * time.Millisecond})
	}
	for i := 0; i < 200; i++ { // rung 1: 200 reads due at once
		plan = append(plan, planned{ID: 10 + i, Rung: 1, Fam: famSS, Sources: []int{0}, Due: 100 * time.Millisecond})
	}
	outs, _ := runLoad(loadConfig{Base: srv.URL, Conns: 1, Timeout: time.Second, Drain: time.Second, StopAbove: []int{0, 20}}, plan)
	if len(outs) <= 10 || len(outs) >= len(plan) {
		t.Fatalf("%d requests offered, want the first rung and part of the second of %d", len(outs), len(plan))
	}
	for i := range outs {
		if outs[i].P != &plan[i] || !outs[i].ok() {
			t.Fatalf("outcome %d: planned %d, status %d %s", i, outs[i].P.ID, outs[i].Status, outs[i].Err)
		}
	}
}
