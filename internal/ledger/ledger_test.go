package ledger

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func entry(minute int, hive, device, component, task string, dir Direction, j float64) Entry {
	return Entry{
		T:    t0.Add(time.Duration(minute) * time.Minute),
		Hive: hive, Device: device, Component: component, Task: task,
		Dir: dir, Joules: j, Store: "battery",
	}
}

func TestNilLedgerIsNoOp(t *testing.T) {
	var l *Ledger
	l.Append(entry(0, "h", "edge", "pi3b", "Sleep", Consume, 1))
	l.SetStore("h", "battery", 0, 0)
	l.AutoDump(&bytes.Buffer{})
	if err := l.Trip("test"); err != nil {
		t.Fatalf("nil Trip: %v", err)
	}
	if l.Len() != 0 || l.Total() != 0 || l.Entries() != nil || l.Stores() != nil || l.Trips() != 0 {
		t.Fatal("nil ledger leaked state")
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	if got := buf.String(); got != `{"k":"hdr","v":1}`+"\n" {
		t.Fatalf("nil WriteJSONL = %q, want bare header", got)
	}
	if rep := Audit(l, DefaultTolerance()); !rep.OK() {
		t.Fatalf("nil audit not OK: %v", rep)
	}
}

func TestAppendAndEntriesOrder(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		l.Append(entry(i, "h", "edge", "pi3b", "Sleep", Consume, float64(i)))
	}
	got := l.Entries()
	if len(got) != 5 || l.Len() != 5 || l.Total() != 5 {
		t.Fatalf("len=%d total=%d", l.Len(), l.Total())
	}
	for i, e := range got {
		if e.Joules != float64(i) {
			t.Fatalf("entry %d out of order: %v", i, e.Joules)
		}
	}
}

func TestRingRetainsLastN(t *testing.T) {
	l, err := NewRing(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		l.Append(entry(i, "h", "edge", "pi3b", "Sleep", Consume, float64(i)))
	}
	if l.Len() != 3 || l.Total() != 7 {
		t.Fatalf("len=%d total=%d, want 3/7", l.Len(), l.Total())
	}
	got := l.Entries()
	for i, want := range []float64{4, 5, 6} {
		if got[i].Joules != want {
			t.Fatalf("ring[%d] = %v, want %v", i, got[i].Joules, want)
		}
	}
	if _, err := NewRing(0); err == nil {
		t.Fatal("NewRing(0) should fail")
	}
}

func TestFlightRecorderTrip(t *testing.T) {
	l, err := NewRing(2)
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	l.AutoDump(&dump)
	for i := 0; i < 4; i++ {
		l.Append(entry(i, "h", "edge", "pi3b", "Sleep", Consume, float64(i)))
	}
	if err := l.Trip("battery cutoff"); err != nil {
		t.Fatal(err)
	}
	if l.Trips() != 1 {
		t.Fatalf("trips = %d", l.Trips())
	}
	out := dump.String()
	if !strings.Contains(out, `"k":"trip"`) || !strings.Contains(out, "battery cutoff") {
		t.Fatalf("dump missing trip header: %q", out)
	}
	if !strings.Contains(out, `"dropped":2`) {
		t.Fatalf("dump missing dropped count: %q", out)
	}
	// The dump is itself a readable ledger (trip header tolerated).
	back, err := ReadJSONL(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("dump reparse = %d entries, want 2", back.Len())
	}
}

func TestJSONLRoundTripAndDeterminism(t *testing.T) {
	build := func() *Ledger {
		l := New()
		l.Append(entry(0, "cachan-1", "edge", "pi3b", "Wake up & Data collection", Consume, 131.8))
		l.Append(Entry{T: t0.Add(time.Second), Hive: "cachan-1", Device: "panel",
			Component: "pv", Task: "panel output", Dir: Harvest, Joules: 12.25, Seconds: 60})
		l.Append(Entry{T: t0.Add(2 * time.Second), Hive: "cachan-1", Device: "battery",
			Component: "pack", Task: "discharge loss", Dir: StoreLoss, Joules: 0.5, Store: "battery"})
		l.SetStore("cachan-1", "battery", 100, 90)
		return l
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical ledgers exported different bytes")
	}

	back, err := ReadJSONL(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	orig := build()
	if got, want := back.Entries(), orig.Entries(); len(got) != len(want) {
		t.Fatalf("round trip: %d entries, want %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("entry %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	stores := back.Stores()
	if len(stores) != 1 || stores[0] != (StoreDelta{Hive: "cachan-1", Store: "battery", InitialJ: 100, FinalJ: 90}) {
		t.Fatalf("round trip stores = %+v", stores)
	}

	// Re-export of the parsed ledger is byte-identical too.
	var c bytes.Buffer
	if err := back.WriteJSONL(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("re-export after parse changed bytes")
	}
}

func TestReadJSONLRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"{not json}\n",
		`{"k":"e","t":"not a time","dev":"edge","task":"x","dir":"consume","j":1}` + "\n",
		`{"k":"e","t":"2023-04-10T00:00:00Z","dev":"edge","task":"x","dir":"sideways","j":1}` + "\n",
	} {
		if _, err := ReadJSONL(strings.NewReader(bad)); err == nil {
			t.Fatalf("ReadJSONL(%q) should fail", bad)
		}
	}
	// Unknown kinds are skipped, not errors.
	l, err := ReadJSONL(strings.NewReader(`{"k":"future-thing","x":1}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatal("unknown kind produced entries")
	}
}

func TestDirectionStringsRoundTrip(t *testing.T) {
	for _, d := range []Direction{Harvest, Consume, StoreLoss} {
		back, err := parseDirection(d.String())
		if err != nil || back != d {
			t.Fatalf("round trip %v: %v, %v", d, back, err)
		}
	}
	if _, err := parseDirection("nope"); err == nil {
		t.Fatal("parseDirection should reject unknown names")
	}
}

func TestBreakdownAggregatesAndSorts(t *testing.T) {
	entries := []Entry{
		entry(0, "b", "edge", "pi3b", "Sleep", Consume, 10),
		entry(1, "a", "edge", "pi3b", "Sleep", Consume, 5),
		entry(2, "a", "edge", "pi3b", "Sleep", Consume, 7),
		entry(3, "a", "monitor", "pi-zero", "monitor", Consume, 3),
	}
	rows := Breakdown(entries, "")
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].Hive != "a" || rows[0].Joules != 12 || rows[0].Count != 2 {
		t.Fatalf("first row = %+v", rows[0])
	}
	if rows[2].Hive != "b" {
		t.Fatalf("rows not sorted by hive: %+v", rows)
	}
	only := Breakdown(entries, "b")
	if len(only) != 1 || only[0].Joules != 10 {
		t.Fatalf("hive filter: %+v", only)
	}
	if hs := Hives(entries); len(hs) != 2 || hs[0] != "a" || hs[1] != "b" {
		t.Fatalf("Hives = %v", hs)
	}
}

func TestDiffRanksLargestMovement(t *testing.T) {
	a := []Entry{
		entry(0, "h", "edge", "pi3b", "Queen detection model (CNN)", Consume, 94.8),
		entry(1, "h", "edge", "pi3b", "Sleep", Consume, 111.6),
	}
	b := []Entry{
		entry(0, "h", "cloud", "server", "Idle", Consume, 9415),
		entry(1, "h", "edge", "pi3b", "Sleep", Consume, 131.9),
		entry(2, "h", "edge", "radio", "Send audio", Consume, 37.3),
	}
	rows := Diff(a, b)
	if len(rows) != 4 {
		t.Fatalf("diff rows = %d, want 4", len(rows))
	}
	if rows[0].Task != "Idle" || rows[0].DeltaJ != 9415 {
		t.Fatalf("largest movement should be cloud idle: %+v", rows[0])
	}
	// The dropped edge inference appears with a negative delta.
	found := false
	for _, r := range rows {
		if r.Task == "Queen detection model (CNN)" && r.DeltaJ == -94.8 && r.BJ == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing negative delta row: %+v", rows)
	}
}
