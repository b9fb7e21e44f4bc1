package timeseries

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2023, 4, 10, 8, 0, 0, 0, time.UTC)

func mk(t *testing.T, vals ...float64) *Series {
	t.Helper()
	s := New("power", "W")
	for i, v := range vals {
		if err := s.Append(t0.Add(time.Duration(i)*time.Minute), v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAppendOrdering(t *testing.T) {
	s := New("x", "")
	if err := s.Append(t0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(t0.Add(-time.Second), 2); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	// Equal timestamps are allowed (two sensors reporting in one instant).
	if err := s.Append(t0, 3); err != nil {
		t.Fatalf("equal-timestamp append rejected: %v", err)
	}
}

func TestMustAppendPanics(t *testing.T) {
	s := New("x", "")
	s.MustAppend(t0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend out of order did not panic")
		}
	}()
	s.MustAppend(t0.Add(-time.Hour), 2)
}

func TestSpanValuesLen(t *testing.T) {
	s := mk(t, 1, 2, 3)
	start, end := s.Span()
	if !start.Equal(t0) || !end.Equal(t0.Add(2*time.Minute)) {
		t.Fatalf("span = %v..%v", start, end)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	vs := s.Values()
	if len(vs) != 3 || vs[0] != 1 || vs[2] != 3 {
		t.Fatalf("values = %v", vs)
	}
}

func TestEmptySpan(t *testing.T) {
	s := New("x", "")
	start, end := s.Span()
	if !start.IsZero() || !end.IsZero() {
		t.Fatal("empty span must be zero times")
	}
}

func TestValueAtSampleAndHold(t *testing.T) {
	s := mk(t, 10, 20, 30)
	if _, ok := s.ValueAt(t0.Add(-time.Second)); ok {
		t.Fatal("value before first point must not exist")
	}
	if v, ok := s.ValueAt(t0); !ok || v != 10 {
		t.Fatalf("ValueAt(t0) = %v,%v", v, ok)
	}
	if v, _ := s.ValueAt(t0.Add(90 * time.Second)); v != 20 {
		t.Fatalf("ValueAt(+90s) = %v, want 20 (hold)", v)
	}
	if v, _ := s.ValueAt(t0.Add(time.Hour)); v != 30 {
		t.Fatalf("ValueAt(+1h) = %v, want 30", v)
	}
}

func TestSlice(t *testing.T) {
	s := mk(t, 1, 2, 3, 4, 5)
	sub := s.Slice(t0.Add(time.Minute), t0.Add(3*time.Minute))
	if sub.Len() != 2 {
		t.Fatalf("slice len = %d, want 2", sub.Len())
	}
	if sub.At(0).V != 2 || sub.At(1).V != 3 {
		t.Fatalf("slice values = %v, %v", sub.At(0).V, sub.At(1).V)
	}
}

func TestGaps(t *testing.T) {
	s := New("x", "")
	s.MustAppend(t0, 1)
	s.MustAppend(t0.Add(time.Minute), 1)
	s.MustAppend(t0.Add(9*time.Hour), 1) // night outage
	gaps := s.Gaps(time.Hour)
	if len(gaps) != 1 {
		t.Fatalf("gaps = %d, want 1", len(gaps))
	}
	if !gaps[0].Start.Equal(t0.Add(time.Minute)) {
		t.Fatalf("gap start = %v", gaps[0].Start)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := mk(t, 1.5, 2.25, 3.125)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+s.Len() || rows[0][1] != "power (W)" {
		t.Fatalf("csv rows = %q", rows)
	}
	for i, row := range rows[1:] {
		ts, err := time.Parse(time.RFC3339Nano, row[0])
		if err != nil {
			t.Fatal(err)
		}
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v != s.At(i).V || !ts.Equal(s.At(i).T) {
			t.Fatalf("point %d mismatch: %v %v vs %v", i, ts, v, s.At(i))
		}
	}
}

func TestWriteCSVMultiSeries(t *testing.T) {
	a := mk(t, 1, 2)
	b := New("temp", "C")
	b.MustAppend(t0.Add(30*time.Second), 35)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 distinct timestamps
		t.Fatalf("csv lines = %d, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "power (W)") || !strings.Contains(lines[0], "temp (C)") {
		t.Fatalf("header = %q", lines[0])
	}
	// First row: temp has no value yet.
	if !strings.HasSuffix(lines[1], ",") {
		t.Fatalf("expected empty temp cell in first row: %q", lines[1])
	}
}

func TestWriteCSVNoSeries(t *testing.T) {
	if err := WriteCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteCSV with no series did not error")
	}
}
