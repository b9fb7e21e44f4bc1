// Package timeseries stores the timestamped measurements that beesim's
// simulated deployment produces: power draw, in-hive temperature and
// humidity, battery state of charge, and the weather trace.
//
// Figure 2 of the paper plots a full week of such series at once; this
// package provides the container, the windowing operations the figure
// needs, and a CSV writer so every figure can be exported for external
// plotting.
package timeseries

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// Point is one observation.
type Point struct {
	T time.Time
	V float64
}

// Series is an append-only ordered sequence of observations.
type Series struct {
	Name   string
	Unit   string
	points []Point
}

// New creates an empty series with a display name and unit label.
func New(name, unit string) *Series {
	return &Series{Name: name, Unit: unit}
}

// Append adds an observation. Out-of-order appends are rejected so that
// every consumer can rely on monotone timestamps.
func (s *Series) Append(t time.Time, v float64) error {
	if n := len(s.points); n > 0 && t.Before(s.points[n-1].T) {
		return fmt.Errorf("timeseries %q: append at %v before last point %v",
			s.Name, t, s.points[n-1].T)
	}
	s.points = append(s.points, Point{T: t, V: v})
	return nil
}

// MustAppend is Append for callers generating inherently ordered data
// (e.g. a simulation clock); it panics on an ordering violation, which in
// that context is a programming error.
func (s *Series) MustAppend(t time.Time, v float64) {
	if err := s.Append(t, v); err != nil {
		panic(err)
	}
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.points) }

// At returns the i-th observation.
func (s *Series) At(i int) Point { return s.points[i] }

// Points returns the underlying observations. The slice must not be
// mutated by the caller.
func (s *Series) Points() []Point { return s.points }

// Span returns the time covered by the series, or zeros when empty.
func (s *Series) Span() (start, end time.Time) {
	if len(s.points) == 0 {
		return
	}
	return s.points[0].T, s.points[len(s.points)-1].T
}

// Values returns a copy of the observation values in order.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.points))
	for i, p := range s.points {
		vs[i] = p.V
	}
	return vs
}

// ValueAt returns the last observation at or before t (sample-and-hold
// interpolation) and whether one exists.
func (s *Series) ValueAt(t time.Time) (float64, bool) {
	i := sort.Search(len(s.points), func(i int) bool {
		return s.points[i].T.After(t)
	})
	if i == 0 {
		return 0, false
	}
	return s.points[i-1].V, true
}

// Slice returns the sub-series with start <= t < end.
func (s *Series) Slice(start, end time.Time) *Series {
	lo := sort.Search(len(s.points), func(i int) bool {
		return !s.points[i].T.Before(start)
	})
	hi := sort.Search(len(s.points), func(i int) bool {
		return !s.points[i].T.Before(end)
	})
	out := New(s.Name, s.Unit)
	out.points = append(out.points, s.points[lo:hi]...)
	return out
}

// Gaps returns the intervals between consecutive points longer than min.
// Figure 2a's night-time outages appear as such gaps.
func (s *Series) Gaps(min time.Duration) []struct{ Start, End time.Time } {
	var out []struct{ Start, End time.Time }
	for i := 1; i < len(s.points); i++ {
		if d := s.points[i].T.Sub(s.points[i-1].T); d > min {
			out = append(out, struct{ Start, End time.Time }{s.points[i-1].T, s.points[i].T})
		}
	}
	return out
}

// WriteCSV writes one or more series sharing a time column. Series are
// sampled with sample-and-hold at the union of all timestamps.
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return errors.New("timeseries: no series to write")
	}
	cw := csv.NewWriter(w)
	header := []string{"time"}
	for _, s := range series {
		col := s.Name
		if s.Unit != "" {
			col += " (" + s.Unit + ")"
		}
		header = append(header, col)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	// Union of timestamps.
	stampSet := map[int64]time.Time{}
	for _, s := range series {
		for _, p := range s.points {
			stampSet[p.T.UnixNano()] = p.T
		}
	}
	stamps := make([]time.Time, 0, len(stampSet))
	for _, t := range stampSet {
		stamps = append(stamps, t)
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i].Before(stamps[j]) })
	row := make([]string, 1+len(series))
	for _, t := range stamps {
		row[0] = t.UTC().Format(time.RFC3339Nano)
		for i, s := range series {
			if v, ok := s.ValueAt(t); ok {
				row[i+1] = strconv.FormatFloat(v, 'g', -1, 64)
			} else {
				row[i+1] = ""
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
