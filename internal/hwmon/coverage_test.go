package hwmon

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// These tests walk the Counters struct with reflection so a new
// counter cannot be silently dropped from aggregation (Add), windowing
// (Delta), or reports (String): Add and Delta share one loop over the
// fields, and String's hand-written labels must keep up with the
// struct.

// distinct fills each field of a Counters with a distinct large value
// (base + 7i, all >= 100000 so no value collides with a field index or
// another field).
func distinct(base uint64) Counters {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(base + 7*uint64(i))
	}
	return c
}

func TestCountersFieldsAreAllUint64(t *testing.T) {
	ty := reflect.TypeOf(Counters{})
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("field %s is %s; the reflection coverage tests assume uint64", f.Name, f.Type)
		}
	}
}

func TestAddCoversEveryField(t *testing.T) {
	src := distinct(100000)
	var dst Counters
	dst.Add(src)
	if !reflect.DeepEqual(dst, src) {
		diffFields(t, "Add", dst, src)
	}
}

func TestDeltaCoversEveryField(t *testing.T) {
	base := distinct(100000)
	double := base
	double.Add(base)
	got := double.Delta(base)
	if !reflect.DeepEqual(got, base) {
		diffFields(t, "Delta", got, base)
	}
}

func TestStringCoversEveryField(t *testing.T) {
	c := distinct(100000)
	out := c.String()
	v := reflect.ValueOf(c)
	ty := v.Type()
	for i := 0; i < v.NumField(); i++ {
		val := fmt.Sprintf("%d", v.Field(i).Uint())
		if !strings.Contains(out, val) {
			t.Errorf("String() omits field %s (looked for distinct value %s)", ty.Field(i).Name, val)
		}
	}
}

func TestCounterNamesAndValuesCoverEveryField(t *testing.T) {
	ty := reflect.TypeOf(Counters{})
	names := CounterNames()
	if len(names) != ty.NumField() {
		t.Fatalf("CounterNames returns %d names for %d fields", len(names), ty.NumField())
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n != ty.Field(i).Name {
			t.Errorf("CounterNames[%d] = %q, want field %q", i, n, ty.Field(i).Name)
		}
		if seen[n] {
			t.Errorf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
	c := distinct(100000)
	vals := c.Values()
	if len(vals) != ty.NumField() {
		t.Fatalf("Values returns %d values for %d fields", len(vals), ty.NumField())
	}
	v := reflect.ValueOf(c)
	for i, got := range vals {
		if got != v.Field(i).Uint() {
			t.Errorf("Values[%d] (%s) = %d, want %d", i, names[i], got, v.Field(i).Uint())
		}
	}
}

// diffFields reports exactly which fields a method missed.
func diffFields(t *testing.T, method string, got, want Counters) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	ty := gv.Type()
	for i := 0; i < gv.NumField(); i++ {
		if gv.Field(i).Uint() != wv.Field(i).Uint() {
			t.Errorf("%s drops field %s: got %d, want %d",
				method, ty.Field(i).Name, gv.Field(i).Uint(), wv.Field(i).Uint())
		}
	}
}
