package main

import (
	"math"
	"testing"
	"time"
)

// TestSpeedMeter: each stretch of work is scaled by refSliceSeconds over
// the mean of the slices around it, a slice runs only once sliceEvery
// of work has built up, and the pass ends with one.
func TestSpeedMeter(t *testing.T) {
	times := []float64{2 * refSliceSeconds, 4 * refSliceSeconds, refSliceSeconds}
	ran := 0
	m := newSpeedMeter(func() float64 { ran++; return times[ran-1] })
	m.add(150 * time.Millisecond) // slowed 3x: a slice follows
	m.add(30 * time.Millisecond)
	m.add(20 * time.Millisecond) // both slowed 2.5x, short of sliceEvery
	if ran != 2 {
		t.Fatalf("%d slices before the pass ended, want 2", ran)
	}
	want := (0.150/3 + 0.050/2.5) / 0.200
	if got := m.factor(); ran != 3 || math.Abs(got-want) > 1e-12 {
		t.Errorf("factor %v after %d slices, want %v after 3", got, ran, want)
	}
	var none *speedMeter
	none.add(time.Second)
	if got := none.factor(); got != 1 {
		t.Errorf("nil meter factor %v, want 1", got)
	}
}
