package main

import "testing"

func TestSelfTimeNestedAndConcurrentChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		// Two children that ran at the same time cover their union once.
		{"concurrent", []span{{Start: 110, End: 150}, {Start: 130, End: 160}}, 50},
		{"one inside another", []span{{Start: 110, End: 180}, {Start: 120, End: 130}}, 30},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 300}}, 70},
		{"outside the parent", []span{{Start: 0, End: 50}, {Start: 250, End: 300}}, 100},
		{"covering it all", []span{{Start: 0, End: 300}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestChildrenOfSkipsGrandchildren(t *testing.T) {
	// sync [0,100] > model [10,40] > (a grandchild [15,20]); sync > error [50,60]; next round's sync.
	lane := []span{
		{Kind: spanSync, Parent: -1, Start: 0, End: 100},
		{Kind: spanModel, Parent: 0, Start: 10, End: 40},
		{Kind: spanEval, Parent: 1, Start: 15, End: 20},
		{Kind: spanError, Parent: 0, Start: 50, End: 60},
		{Kind: spanSync, Parent: -1, Start: 200, End: 300},
		{Kind: spanModel, Parent: 4, Start: 210, End: 220},
	}
	kids := childrenOf(lane, 0)
	if len(kids) != 2 || kids[0].Kind != spanModel || kids[1].Kind != spanError {
		t.Fatalf("childrenOf = %+v", kids)
	}
	if got := selfTime(lane[0], kids); got != 60 {
		t.Errorf("self time = %d, want 60: the grandchild must not count twice", got)
	}
}

func TestAnalyzeSplitsClientTime(t *testing.T) {
	rec := newRecorder(2)
	rec.lanes[driverLane] = []span{
		{Kind: spanRound, Round: 0, Parent: -1, Start: 0, End: 1000}, // warm-up, ignored
		{Kind: spanRound, Round: 1, Parent: -1, Start: 1000, End: 2000},
		{Kind: spanEval, Round: 1, Parent: -1, Start: 2000, End: 2100},
	}
	rec.lanes[1] = []span{
		{Kind: spanSync, Round: 0, Parent: -1, Start: 10, End: 900},
		{Kind: spanSync, Round: 1, Parent: -1, Start: 1300, End: 1900},
		{Kind: spanModel, Round: 1, Parent: 1, Start: 1400, End: 1700},
		{Kind: spanError, Round: 1, Parent: 1, Start: 1750, End: 1850},
	}
	rec.lanes[2] = []span{
		{Kind: spanSync, Round: 1, Parent: -1, Start: 1500, End: 1900},
		{Kind: spanModel, Round: 1, Parent: 0, Start: 1600, End: 1700},
	}
	st := analyze(rec, 1)
	if st.trainNS != 300+500 || st.syncSelfNS != 200+300 || st.collNS != 300+100+100 || st.evalNS != 100 {
		t.Errorf("totals: train %d sync %d coll %d eval %d", st.trainNS, st.syncSelfNS, st.collNS, st.evalNS)
	}
	if len(st.collModelMS) != 2 || len(st.collErrorMS) != 1 || len(st.skewMS) != 1 || st.skewMS[0] != ms(200) {
		t.Errorf("collectives %v %v, skew %v", st.collModelMS, st.collErrorMS, st.skewMS)
	}
	m := map[string]float64{}
	st.shares(m)
	if total := m["fl.share_train"] + m["fl.share_sync_self"] + m["fl.share_collective"] + m["fl.share_eval"]; total < 0.999999 || total > 1.000001 {
		t.Errorf("shares sum to %v", total)
	}
}

func TestRecorderNestsSpansPerLane(t *testing.T) {
	rec := newRecorder(1)
	outer := rec.begin(1, spanSync, 3)
	inner := rec.begin(1, spanModel, 3)
	rec.end(1, inner)
	rec.end(1, outer)
	next := rec.begin(1, spanSync, 4)
	rec.end(1, next)
	lane := rec.lanes[1]
	if lane[inner].Parent != outer || lane[outer].Parent != -1 || lane[next].Parent != -1 {
		t.Errorf("parents: %+v", lane)
	}
	if lane[outer].dur() < lane[inner].dur() || lane[inner].End < lane[inner].Start {
		t.Errorf("durations: %+v", lane)
	}
}
