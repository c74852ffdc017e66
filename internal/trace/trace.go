// Package trace defines the block-level trace representation shared by
// the workload generators, the devices, and the experiment harness: timed
// read, write, and free (deallocation) operations over a byte address
// space. It also implements the paper's §3.4 write merging-and-alignment
// pass and a plain-text codec so traces can be saved and replayed with
// cmd/tracegen and cmd/ssdsim.
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

// Kind is the operation type.
type Kind uint8

const (
	// Read transfers data from the device.
	Read Kind = iota
	// Write transfers data to the device.
	Write
	// Free tells the device a range no longer holds live data (a file
	// deletion, the TRIM/OSD-delete signal of §3.5).
	Free
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case Free:
		return "F"
	default:
		return "?"
	}
}

// Op is one trace record.
type Op struct {
	// At is the arrival time.
	At sim.Time
	// Kind is the operation type.
	Kind Kind
	// Tenant identifies the workload stream the op belongs to. Zero is
	// the legacy single-tenant default; MergeTenants tags interleaved
	// per-tenant streams 1..N. The scheduler's fair-share layer and the
	// per-tenant metrics key on it.
	Tenant uint8
	// Priority marks a foreground (high-priority) request (§3.6).
	Priority bool
	// Offset and Size delimit the byte range.
	Offset, Size int64
}

// End returns the first byte past the operation's range.
func (o Op) End() int64 { return o.Offset + o.Size }

// overlaps reports whether two byte ranges intersect.
func (o Op) overlaps(off, size int64) bool {
	return o.Offset < off+size && off < o.End()
}

// Validate reports structural problems with an op. A range whose end
// would overflow int64 is rejected, so End is always positive.
func (o Op) Validate() error {
	if o.Offset < 0 || o.Size <= 0 || o.Size > math.MaxInt64-o.Offset {
		return fmt.Errorf("trace: bad range [%d, +%d)", o.Offset, o.Size)
	}
	if o.At < 0 {
		return fmt.Errorf("trace: negative timestamp %d", o.At)
	}
	if o.Kind > Free {
		return fmt.Errorf("trace: unknown kind %d", o.Kind)
	}
	return nil
}

// Stats summarizes a trace. The JSON tags are the service serialization
// (internal/simsvc); Duration counts simulated nanoseconds.
type Stats struct {
	Ops         int      `json:"ops"`
	Reads       int      `json:"reads"`
	Writes      int      `json:"writes"`
	Frees       int      `json:"frees"`
	ReadBytes   int64    `json:"read_bytes"`
	WriteBytes  int64    `json:"write_bytes"`
	FreedBytes  int64    `json:"freed_bytes"`
	Duration    sim.Time `json:"duration_ns"`
	MaxOffset   int64    `json:"max_offset"`
	PriorityOps int      `json:"priority_ops"`
	// Tenants breaks the tagged (nonzero-tenant) portion of the trace
	// down per tenant, sorted by tenant ID. Untagged legacy ops (tenant
	// 0) appear only in the totals above, so a single-tenant trace
	// summarizes exactly as it always did.
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's slice of a Stats summary.
type TenantStats struct {
	Tenant     int   `json:"tenant"`
	Ops        int   `json:"ops"`
	Reads      int   `json:"reads"`
	Writes     int   `json:"writes"`
	ReadBytes  int64 `json:"read_bytes"`
	WriteBytes int64 `json:"write_bytes"`
}

// tenant returns the entry for t, inserting it in sorted position.
func (s *Stats) tenant(t uint8) *TenantStats {
	i := 0
	for i < len(s.Tenants) && s.Tenants[i].Tenant < int(t) {
		i++
	}
	if i < len(s.Tenants) && s.Tenants[i].Tenant == int(t) {
		return &s.Tenants[i]
	}
	s.Tenants = append(s.Tenants, TenantStats{})
	copy(s.Tenants[i+1:], s.Tenants[i:])
	s.Tenants[i] = TenantStats{Tenant: int(t)}
	return &s.Tenants[i]
}

// add folds one operation into the summary.
func (s *Stats) add(o Op) {
	s.Ops++
	switch o.Kind {
	case Read:
		s.Reads++
		s.ReadBytes += o.Size
	case Write:
		s.Writes++
		s.WriteBytes += o.Size
	case Free:
		s.Frees++
		s.FreedBytes += o.Size
	}
	if o.Tenant != 0 {
		ts := s.tenant(o.Tenant)
		ts.Ops++
		switch o.Kind {
		case Read:
			ts.Reads++
			ts.ReadBytes += o.Size
		case Write:
			ts.Writes++
			ts.WriteBytes += o.Size
		}
	}
	if o.Priority {
		s.PriorityOps++
	}
	if o.At > s.Duration {
		s.Duration = o.At
	}
	if o.End() > s.MaxOffset {
		s.MaxOffset = o.End()
	}
}

// Encoder writes operations incrementally in the text format (v2), one
// per line:
//
//	<at_ns> <R|W|F> <offset> <size> [P] [T<tenant>]
//
// The trailing flags are emitted only when set, so a legacy
// (non-priority, tenant-0) trace encodes byte-identically to the v1
// format and every v1 trace still decodes. Writes are buffered; call
// Flush when done.
type Encoder struct {
	bw *bufio.Writer
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{bw: bufio.NewWriter(w)} }

// Write encodes one operation.
func (e *Encoder) Write(o Op) error {
	if err := o.Validate(); err != nil {
		return err
	}
	flags := ""
	if o.Priority {
		flags = " P"
	}
	if o.Tenant != 0 {
		flags += fmt.Sprintf(" T%d", o.Tenant)
	}
	_, err := fmt.Fprintf(e.bw, "%d %s %d %d%s\n", int64(o.At), o.Kind, o.Offset, o.Size, flags)
	return err
}

// Comment writes a '#' comment line (skipped by the decoder).
func (e *Encoder) Comment(format string, args ...any) error {
	_, err := fmt.Fprintf(e.bw, "# "+format+"\n", args...)
	return err
}

// Flush writes any buffered output to the underlying writer.
func (e *Encoder) Flush() error { return e.bw.Flush() }

// Copy drains a stream into the encoder at constant memory and returns
// the number of operations written. The encoder stays usable (and
// unflushed) afterwards.
func (e *Encoder) Copy(s Stream) (int, error) {
	n := 0
	for {
		op, ok := s.Next()
		if !ok {
			break
		}
		if err := e.Write(op); err != nil {
			return n, err
		}
		n++
	}
	return n, Err(s)
}

// Decoder reads the text format incrementally: a Stream over a trace
// file that never materializes it. Blank lines and lines starting with
// '#' are skipped. After Next returns false, Err reports whether the
// stream ended by exhaustion or by a parse/IO error.
type Decoder struct {
	sc   *bufio.Scanner
	line int
	err  error
	done bool
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &Decoder{sc: sc}
}

// Err implements ErrStream.
func (d *Decoder) Err() error { return d.err }

// Next implements Stream.
func (d *Decoder) Next() (Op, bool) {
	if d.done {
		return Op{}, false
	}
	for d.sc.Scan() {
		d.line++
		text := strings.TrimSpace(d.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		op, err := d.parse(text)
		if err != nil {
			d.err = err
			d.done = true
			return Op{}, false
		}
		return op, true
	}
	d.err = d.sc.Err()
	d.done = true
	return Op{}, false
}

// parse decodes one non-comment line.
func (d *Decoder) parse(text string) (Op, error) {
	f := strings.Fields(text)
	if len(f) < 4 || len(f) > 6 {
		return Op{}, fmt.Errorf("trace: line %d: want 4 to 6 fields, got %d", d.line, len(f))
	}
	at, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return Op{}, fmt.Errorf("trace: line %d: bad timestamp: %v", d.line, err)
	}
	var kind Kind
	switch f[1] {
	case "R":
		kind = Read
	case "W":
		kind = Write
	case "F":
		kind = Free
	default:
		return Op{}, fmt.Errorf("trace: line %d: bad kind %q", d.line, f[1])
	}
	off, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil {
		return Op{}, fmt.Errorf("trace: line %d: bad offset: %v", d.line, err)
	}
	size, err := strconv.ParseInt(f[3], 10, 64)
	if err != nil {
		return Op{}, fmt.Errorf("trace: line %d: bad size: %v", d.line, err)
	}
	op := Op{At: sim.Time(at), Kind: kind, Offset: off, Size: size}
	for _, flag := range f[4:] {
		switch {
		case flag == "P" && !op.Priority:
			op.Priority = true
		case len(flag) > 1 && flag[0] == 'T' && op.Tenant == 0:
			t, err := strconv.ParseUint(flag[1:], 10, 8)
			if err != nil || t == 0 {
				return Op{}, fmt.Errorf("trace: line %d: bad tenant flag %q", d.line, flag)
			}
			op.Tenant = uint8(t)
		default:
			return Op{}, fmt.Errorf("trace: line %d: bad flag %q", d.line, flag)
		}
	}
	if err := op.Validate(); err != nil {
		return Op{}, fmt.Errorf("trace: line %d: %v", d.line, err)
	}
	return op, nil
}
