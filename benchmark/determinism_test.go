package main

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestInputsFollowTheSeed: the same seed gives the same job lists, sources
// and request bodies; another seed gives other programs and bodies but the
// same sweep jobs and the same request mix.
func TestInputsFollowTheSeed(t *testing.T) {
	sp := detailedSweep()
	a, b, c := sp.jobs(1), sp.jobs(1), sp.jobs(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("sweep job order differs between runs of seed 1")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 give the same sweep job order")
	}
	key := func(js []sweepJob) []string {
		var out []string
		for _, j := range js {
			out = append(out, j.String())
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(key(a), key(c)) {
		t.Error("seeds 1 and 2 sweep different job sets")
	}

	cm := compileMixSpec{pool: 18}
	s1, s2 := cm.sources(1), cm.sources(2)
	if !reflect.DeepEqual(s1, cm.sources(1)) {
		t.Error("compile-mix sources differ between runs of seed 1")
	}
	for k := range s1 {
		if s1[k] == s2[k] {
			t.Errorf("compile-mix source %d is the same under seeds 1 and 2", k)
		}
	}

	r1, r2 := requests(1, 200), requests(2, 200)
	if !reflect.DeepEqual(r1, requests(1, 200)) {
		t.Error("service-mix requests differ between runs of seed 1")
	}
	differ := 0
	for i := range r1 {
		if string(r1[i].body) != string(r2[i].body) {
			differ++
		}
		if (r1[i].repeatOf < 0) != (r2[i].repeatOf < 0) {
			t.Errorf("request %d is a repeat under one seed only", i)
		}
		if r1[i].repeatOf < 0 && (r1[i].kind != r2[i].kind || r1[i].req.Scheme != r2[i].req.Scheme ||
			r1[i].req.Timing != r2[i].req.Timing || r1[i].req.Config != r2[i].req.Config ||
			(r1[i].req.Workload == "") != (r2[i].req.Workload == "")) {
			t.Errorf("request %d: the mix of unique requests depends on the seed", i)
		}
		if k := r1[i].repeatOf; k >= 0 && string(r1[k].body) != string(r1[i].body) {
			t.Errorf("request %d does not repeat request %d verbatim", i, k)
		}
	}
	if differ < len(r1)*9/10 {
		t.Errorf("only %d of %d request bodies differ between seeds 1 and 2", differ, len(r1))
	}
}

// TestGuestMetricsRepeat: guest results are exact, so runs of one seed
// agree on every job's cycles and the speedups, and another seed — the
// same jobs in another order — agrees on them too.
func TestGuestMetricsRepeat(t *testing.T) {
	run := func(seed int64) *result {
		r, err := tiny[0].run(runConfig{seed: seed, seconds: time.Minute})
		if err != nil || !r.correct() {
			t.Fatalf("seed %d: %v %v", seed, err, r.failures)
		}
		return r
	}
	a, b, c := run(1), run(1), run(3)
	if !reflect.DeepEqual(a.guest, b.guest) {
		t.Errorf("seed 1 guest outcomes differ:\n%v\n%v", a.guest, b.guest)
	}
	notes := func(r *result) map[string]float64 {
		m := map[string]float64{}
		for _, n := range r.notes {
			m[n.Name] = n.Value
		}
		return m
	}
	na, nb, nc := notes(a), notes(b), notes(c)
	for _, k := range []string{"adv_speedup_4way_pct"} {
		if _, ok := na[k]; !ok || na[k] != nb[k] || na[k] != nc[k] {
			t.Errorf("%s: %v %v %v", k, na[k], nb[k], nc[k])
		}
	}
	sa, sc := sortedCopy(a.guest), sortedCopy(c.guest)
	if !reflect.DeepEqual(sa, sc) {
		t.Errorf("seeds 1 and 3 give different guest outcomes:\n%v\n%v", sa, sc)
	}
}
