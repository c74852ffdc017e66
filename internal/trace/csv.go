package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"ossd/internal/sim"
)

// CSVLayout maps the columns of an MSR-Cambridge/SNIA-style CSV block
// trace onto Op fields. The zero value selects the MSR-Cambridge layout
// (see MSRLayout); set fields explicitly for other published formats.
type CSVLayout struct {
	// Timestamp, Type, Offset, and Size are column indices (0-based).
	Timestamp int
	Type      int
	Offset    int
	Size      int
	// Host is the column whose distinct values become tenant IDs in
	// first-seen order (1, 2, …), or -1 for no tenant tagging.
	Host int
	// TimestampUnit is the duration of one timestamp tick. MSR traces
	// use Windows filetime: 100 ns ticks.
	TimestampUnit sim.Time
}

// MSRLayout is the MSR-Cambridge column layout:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// with filetime (100 ns) timestamps.
func MSRLayout() CSVLayout {
	return CSVLayout{Timestamp: 0, Host: 1, Type: 3, Offset: 4, Size: 5, TimestampUnit: 100}
}

// csvDecoder streams Ops out of a CSV block trace.
type csvDecoder struct {
	sc     *bufio.Scanner
	layout CSVLayout
	line   int
	err    error
	done   bool
	first  bool // next data row is the first: anchors the time base
	base   int64
	prevAt sim.Time
	// tenants maps host column values to tenant IDs in first-seen order.
	tenants map[string]uint8
}

// DecodeCSV returns a Stream over an MSR-Cambridge/SNIA-style CSV block
// trace: one op per row, timestamps rebased so the first record arrives
// at 0, read/write parsed case-insensitively, and (when the layout has a
// host column) hostnames mapped to tenant IDs in first-seen order so a
// multi-host trace replays as a multi-tenant workload. A header row is
// skipped automatically; timestamps are clamped monotone so slightly
// out-of-order rows still replay. The zero layout selects MSRLayout.
func DecodeCSV(r io.Reader, layout CSVLayout) Stream {
	if layout == (CSVLayout{}) {
		layout = MSRLayout()
	}
	if layout.TimestampUnit <= 0 {
		layout.TimestampUnit = 1
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &csvDecoder{sc: sc, layout: layout, first: true, tenants: map[string]uint8{}}
}

// Err implements ErrStream.
func (d *csvDecoder) Err() error { return d.err }

// Next implements Stream.
func (d *csvDecoder) Next() (Op, bool) {
	if d.done {
		return Op{}, false
	}
	for d.sc.Scan() {
		d.line++
		text := strings.TrimSpace(d.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		op, ok, err := d.parse(text)
		if err != nil {
			d.err = err
			d.done = true
			return Op{}, false
		}
		if !ok { // header row
			continue
		}
		return op, true
	}
	d.err = d.sc.Err()
	d.done = true
	return Op{}, false
}

// parse decodes one row. ok is false for a tolerated header row.
func (d *csvDecoder) parse(text string) (Op, bool, error) {
	f := strings.Split(text, ",")
	max := d.layout.Timestamp
	for _, c := range []int{d.layout.Type, d.layout.Offset, d.layout.Size, d.layout.Host} {
		if c > max {
			max = c
		}
	}
	if len(f) <= max {
		return Op{}, false, fmt.Errorf("trace: csv line %d: want at least %d columns, got %d", d.line, max+1, len(f))
	}
	ts, err := strconv.ParseInt(strings.TrimSpace(f[d.layout.Timestamp]), 10, 64)
	if err != nil {
		if d.first && d.line == 1 {
			return Op{}, false, nil // header row
		}
		return Op{}, false, fmt.Errorf("trace: csv line %d: bad timestamp: %v", d.line, err)
	}
	var op Op
	switch t := strings.TrimSpace(f[d.layout.Type]); {
	case strings.EqualFold(t, "Read") || strings.EqualFold(t, "R"):
		op.Kind = Read
	case strings.EqualFold(t, "Write") || strings.EqualFold(t, "W"):
		op.Kind = Write
	default:
		return Op{}, false, fmt.Errorf("trace: csv line %d: bad type %q", d.line, t)
	}
	if op.Offset, err = strconv.ParseInt(strings.TrimSpace(f[d.layout.Offset]), 10, 64); err != nil {
		return Op{}, false, fmt.Errorf("trace: csv line %d: bad offset: %v", d.line, err)
	}
	if op.Size, err = strconv.ParseInt(strings.TrimSpace(f[d.layout.Size]), 10, 64); err != nil {
		return Op{}, false, fmt.Errorf("trace: csv line %d: bad size: %v", d.line, err)
	}
	if d.layout.Host >= 0 {
		host := strings.TrimSpace(f[d.layout.Host])
		t, ok := d.tenants[host]
		if !ok {
			if len(d.tenants) >= 255 {
				return Op{}, false, fmt.Errorf("trace: csv line %d: more than 255 distinct hosts", d.line)
			}
			t = uint8(len(d.tenants) + 1)
			d.tenants[host] = t
		}
		op.Tenant = t
	}
	if d.first {
		d.first = false
		d.base = ts
	}
	at, ok := d.elapsed(ts)
	if !ok {
		return Op{}, false, fmt.Errorf("trace: csv line %d: timestamp %d is out of range from the first row's %d", d.line, ts, d.base)
	}
	op.At = at
	if op.At < d.prevAt {
		op.At = d.prevAt
	}
	d.prevAt = op.At
	if err := op.Validate(); err != nil {
		return Op{}, false, fmt.Errorf("trace: csv line %d: %v", d.line, err)
	}
	return op, true, nil
}

// elapsed converts a tick count to simulated time since the first row.
// It reports false when the tick difference or its product with the
// tick unit overflows int64.
func (d *csvDecoder) elapsed(ts int64) (sim.Time, bool) {
	delta := ts - d.base
	if (delta < ts) != (d.base > 0) {
		return 0, false
	}
	unit := int64(d.layout.TimestampUnit)
	if delta > math.MaxInt64/unit || delta < math.MinInt64/unit {
		return 0, false
	}
	return sim.Time(delta * unit), true
}
