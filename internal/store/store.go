// Package store is the cloud side's data archive: the paper's edge
// devices transfer every cycle's readings "to a remote data storage
// cloud server", and the beekeeper-facing services query it back out.
//
// The implementation is an append-only, length-prefixed binary log with
// an in-memory index per hive, safe for concurrent use. Records are
// timestamped measurements or detection results; queries select by hive
// and time range. The on-disk format is self-describing enough to be
// re-opened and re-indexed after a restart.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Kind tags a record.
type Kind uint8

// Record kinds.
const (
	// KindSensor is a scalar sensor batch.
	KindSensor Kind = iota + 1
	// KindResult is a service verdict (e.g. queen detection).
	KindResult
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSensor:
		return "sensor"
	case KindResult:
		return "result"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one archived entry.
type Record struct {
	Hive string    `json:"hive"`
	Time time.Time `json:"time"`
	Kind Kind      `json:"kind"`
	// Fields carries the payload (sensor values or verdict details).
	Fields map[string]float64 `json:"fields,omitempty"`
	// Text carries non-numeric payload entries.
	Text map[string]string `json:"text,omitempty"`
}

// Validate checks a record is storable.
func (r Record) Validate() error {
	if r.Hive == "" {
		return errors.New("store: empty hive id")
	}
	if r.Time.IsZero() {
		return errors.New("store: zero timestamp")
	}
	if r.Kind != KindSensor && r.Kind != KindResult {
		return fmt.Errorf("store: invalid kind %d", r.Kind)
	}
	return nil
}

// Store is an append-only archive. Create with Open (file-backed) or
// OpenMemory (tests, ephemeral servers).
type Store struct {
	mu    sync.RWMutex
	w     io.Writer
	f     *os.File // nil for memory stores
	index map[string][]Record
	count int

	// cap bounds the resident index (0 = unbounded). When an append
	// would exceed it, the oldest indexed record is shed first — the
	// bounded-memory ingestion policy a saturated server needs. The
	// on-disk log (file-backed stores) keeps every record; only the
	// queryable in-memory index is capped.
	cap     int
	arrival []string // hive of each indexed record, oldest first
	evicted int
}

// OpenMemory creates an in-memory store.
func OpenMemory() *Store {
	return &Store{w: io.Discard, index: map[string][]Record{}}
}

// Open creates or re-opens a file-backed store at path, re-indexing any
// existing records.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{f: f, w: f, index: map[string][]Record{}}
	if err := s.reindex(); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return s, nil
}

// reindex scans the log from the start and rebuilds the index.
func (s *Store) reindex() error {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	for {
		rec, err := readRecord(s.f)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: corrupt log: %w", err)
		}
		s.insert(rec)
	}
}

// Close releases the backing file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	s.w = nil
	return err
}

// Append stores one record.
func (s *Store) Append(rec Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return errors.New("store: closed")
	}
	if err := writeRecord(s.w, rec); err != nil {
		return err
	}
	s.insert(rec)
	if s.cap > 0 {
		s.arrival = append(s.arrival, rec.Hive)
		for s.count > s.cap {
			s.evictOldest()
		}
	}
	return nil
}

// SetCap bounds the in-memory index to at most n records (n <= 0
// removes the bound). When the cap is exceeded the store sheds records
// oldest-arrival-first, so a saturated server's memory stays bounded
// while the freshest data remains queryable. Records already indexed
// count against the cap immediately, in (time, hive) order.
func (s *Store) SetCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		s.cap = 0
		s.arrival = nil
		return
	}
	s.cap = n
	// Rebuild the arrival order for records indexed before the cap was
	// armed: oldest timestamp first, ties broken by hive id, so the
	// shed order is deterministic.
	type stamped struct {
		t    time.Time
		hive string
	}
	all := make([]stamped, 0, s.count)
	for hive, rs := range s.index {
		for _, r := range rs {
			all = append(all, stamped{r.Time, hive})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].t.Equal(all[j].t) {
			return all[i].t.Before(all[j].t)
		}
		return all[i].hive < all[j].hive
	})
	s.arrival = make([]string, len(all))
	for i, a := range all {
		s.arrival[i] = a.hive
	}
	for s.count > s.cap {
		s.evictOldest()
	}
}

// evictOldest drops the oldest-arrival indexed record. Within that
// record's hive the time-ordered slice sheds its head — the hive's
// oldest record — so queries lose history from the far end first.
// Callers hold s.mu.
func (s *Store) evictOldest() {
	if len(s.arrival) == 0 {
		return
	}
	hive := s.arrival[0]
	s.arrival = s.arrival[1:]
	rs := s.index[hive]
	if len(rs) == 0 {
		return
	}
	copy(rs, rs[1:])
	s.index[hive] = rs[:len(rs)-1]
	if len(rs) == 1 {
		delete(s.index, hive)
	}
	s.count--
	s.evicted++
}

// Evicted returns the total number of records shed by the cap so far.
func (s *Store) Evicted() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.evicted
}

// insert adds to the index keeping each hive's slice time-ordered.
func (s *Store) insert(rec Record) {
	rs := s.index[rec.Hive]
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Time.After(rec.Time) })
	rs = append(rs, Record{})
	copy(rs[i+1:], rs[i:])
	rs[i] = rec
	s.index[rec.Hive] = rs
	s.count++
}

// Len returns the total record count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// Hives returns the known hive ids, sorted.
func (s *Store) Hives() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.index))
	for h := range s.index {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Query selects records for one hive with from <= t < to, optionally
// filtered by kind (0 selects all kinds).
func (s *Store) Query(hive string, from, to time.Time, kind Kind) ([]Record, error) {
	if hive == "" {
		return nil, errors.New("store: empty hive id")
	}
	if to.Before(from) {
		return nil, errors.New("store: inverted time range")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs := s.index[hive]
	lo := sort.Search(len(rs), func(i int) bool { return !rs[i].Time.Before(from) })
	hi := sort.Search(len(rs), func(i int) bool { return !rs[i].Time.Before(to) })
	var out []Record
	for _, r := range rs[lo:hi] {
		if kind == 0 || r.Kind == kind {
			out = append(out, r)
		}
	}
	return out, nil
}

// Latest returns the most recent record of a kind for a hive.
func (s *Store) Latest(hive string, kind Kind) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs := s.index[hive]
	for i := len(rs) - 1; i >= 0; i-- {
		if kind == 0 || rs[i].Kind == kind {
			return rs[i], true
		}
	}
	return Record{}, false
}

// --- log framing ---

const recordMagic uint16 = 0xBEE5

func writeRecord(w io.Writer, rec Record) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	header := make([]byte, 6)
	binary.BigEndian.PutUint16(header[0:2], recordMagic)
	binary.BigEndian.PutUint32(header[2:6], uint32(len(body)))
	if _, err := w.Write(header); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func readRecord(r io.Reader) (Record, error) {
	header := make([]byte, 6)
	if _, err := io.ReadFull(r, header); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, errors.New("store: truncated header")
		}
		return Record{}, err
	}
	if binary.BigEndian.Uint16(header[0:2]) != recordMagic {
		return Record{}, errors.New("store: bad record magic")
	}
	n := binary.BigEndian.Uint32(header[2:6])
	if n > 1<<20 {
		return Record{}, errors.New("store: oversized record")
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Record{}, errors.New("store: truncated body")
	}
	var rec Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}
