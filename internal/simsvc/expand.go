package simsvc

// Campaign expansion: axes apply to the template's JSON by dotted path,
// and every cell is validated before anything is enqueued. Because jobs
// are deduplicated by the content-addressed result cache, re-running a
// campaign after one axis changes only simulates the new cells, and
// cells that differ only in the submitting tenant collapse to one
// simulation.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// axis is one swept parameter: a dotted path into the JobSpec JSON
// ("params.seed", "options.scheduler", "profile", …) and the values it
// takes. Exactly one of Values and Range must be set; Range is the
// integer convenience for seed-style sweeps.
type axis struct {
	Name   string            `json:"name"`
	Values []json.RawMessage `json:"values,omitempty"`
	Range  *axisRange        `json:"range,omitempty"`
}

// axisRange enumerates From..To inclusive, stepping by Step (default 1).
type axisRange struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
	Step int64 `json:"step,omitempty"`
}

// step is the range's stride (default 1).
func (r *axisRange) step() int64 {
	if r.Step == 0 {
		return 1
	}
	return r.Step
}

// count is how many values the range enumerates. It is computed in
// uint64, where To-From cannot overflow, and saturates rather than
// wrapping, so a range ending at math.MaxInt64 or spanning all of int64
// is counted in O(1), never looped over.
func (r *axisRange) count() (uint64, error) {
	if r.step() < 0 {
		return 0, fmt.Errorf("campaign: range step %d must be positive", r.Step)
	}
	if r.To < r.From {
		return 0, fmt.Errorf("campaign: empty range [%d, %d]", r.From, r.To)
	}
	return min((uint64(r.To)-uint64(r.From))/uint64(r.step()), math.MaxUint64-1) + 1, nil
}

// values materializes the first n values as JSON. Each is computed as
// From + k·Step, which is exact for any in-range value even where the
// product alone overflows.
func (r *axisRange) values(n int) []json.RawMessage {
	vals := make([]json.RawMessage, n)
	for k := range vals {
		vals[k] = strconv.AppendInt(nil, r.From+int64(k)*r.step(), 10)
	}
	return vals
}

// campaignSpec is a campaign request: a job template plus the axes to
// sweep. Zero axes is legal (a one-cell campaign).
type campaignSpec struct {
	Template JobSpec `json:"template"`
	Axes     []axis  `json:"axes,omitempty"`
}

// axisValue is one coordinate of a cell: the axis name and the label of
// the value the cell took on it. Coordinates are an ordered slice (not
// a map) so every serialization lists axes in spec order.
type axisValue struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// campaignCell is one expanded grid point — the fully substituted job
// spec and its coordinates — plus everything learned while running it.
// Cells whose specs share a cache identity (a tenant axis) dedup in the
// job manager, not here.
type campaignCell struct {
	Index  int
	Spec   JobSpec
	Coords []axisValue

	job     *Job // nil until submitted
	settled bool
	view    JobView // the terminal outcome, once settled
}

// label renders an axis value for coordinates and table headers:
// strings drop their quotes, everything else is the compact JSON.
func label(raw json.RawMessage) string {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		return s
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
}

// setPath sets a dotted path in a JSON tree, creating intermediate
// objects as needed (the template's omitempty fields may be absent).
// Numeric segments index into arrays the template already carries —
// "tenants.0.weight" sweeps the first tenant's fair-share weight — but
// arrays are never created implicitly and never grown: the template
// must list the elements the axis addresses. Wrong field names are not
// detectable here — the final strict decode into JobSpec catches them.
func setPath(m map[string]any, path string, v any) error {
	segs := strings.Split(path, ".")
	var cur any = m
	for i, seg := range segs {
		if seg == "" {
			return fmt.Errorf("campaign: axis %q has an empty path segment", path)
		}
		last := i == len(segs)-1
		switch node := cur.(type) {
		case map[string]any:
			if last {
				node[seg] = v
				return nil
			}
			next, ok := node[seg]
			if !ok {
				child := map[string]any{}
				node[seg] = child
				cur = child
				continue
			}
			cur = next
		case []any:
			idx, err := strconv.Atoi(seg)
			if err != nil {
				return fmt.Errorf("campaign: axis %q: %q indexes an array but is not an integer", path, seg)
			}
			if idx < 0 || idx >= len(node) {
				return fmt.Errorf("campaign: axis %q: index %d outside the template's %d-element array", path, idx, len(node))
			}
			if last {
				node[idx] = v
				return nil
			}
			cur = node[idx]
		default:
			return fmt.Errorf("campaign: axis %q: %q is not an object or array", path, seg)
		}
	}
	return nil
}

// decodeNumeric unmarshals JSON preserving number literals verbatim
// (json.Number round-trips), so axis values and template numbers
// survive the map detour byte-for-byte.
func decodeNumeric(raw []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	return dec.Decode(into)
}

// expand materializes the spec's cartesian product in canonical order:
// axes iterate in spec order with the last axis varying fastest, like
// nested loops — cell index is the row-major rank of its coordinate
// vector. maxCells, the server's guard (Options.MaxCells), is checked
// against each axis's value count before that axis is materialized;
// every cell's spec is validated before any cell is returned, so a bad
// axis value rejects the whole campaign.
func expand(spec campaignSpec, maxCells int) ([]*campaignCell, error) {
	axes := make([][]json.RawMessage, len(spec.Axes))
	seen := map[string]bool{}
	total := 1
	for i, ax := range spec.Axes {
		if ax.Name == "" {
			return nil, fmt.Errorf("campaign: axis %d has no name", i)
		}
		if seen[ax.Name] {
			return nil, fmt.Errorf("campaign: duplicate axis %q", ax.Name)
		}
		seen[ax.Name] = true
		n := uint64(len(ax.Values))
		switch {
		case n > 0 && ax.Range != nil:
			return nil, fmt.Errorf("campaign: axis %q sets both values and range", ax.Name)
		case ax.Range != nil:
			var err error
			if n, err = ax.Range.count(); err != nil {
				return nil, err
			}
		case n == 0:
			return nil, fmt.Errorf("campaign: axis %q has no values", ax.Name)
		}
		if n > uint64(max(maxCells/total, 0)) {
			return nil, fmt.Errorf("campaign: expansion exceeds %d cells", maxCells)
		}
		axes[i] = ax.Values
		if ax.Range != nil {
			axes[i] = ax.Range.values(int(n))
		}
		total *= int(n)
	}

	template, err := json.Marshal(spec.Template)
	if err != nil {
		return nil, fmt.Errorf("campaign: marshal template: %w", err)
	}

	cells := make([]*campaignCell, 0, total)
	idx := make([]int, len(spec.Axes))
	for n := 0; n < total; n++ {
		var tree map[string]any
		if err := decodeNumeric(template, &tree); err != nil {
			return nil, fmt.Errorf("campaign: decode template: %w", err)
		}
		cell := &campaignCell{Index: n, Coords: make([]axisValue, len(spec.Axes))}
		for a, ax := range spec.Axes {
			raw := axes[a][idx[a]]
			var v any
			if err := decodeNumeric(raw, &v); err != nil {
				return nil, fmt.Errorf("campaign: axis %q value %s: %w", ax.Name, raw, err)
			}
			if err := setPath(tree, ax.Name, v); err != nil {
				return nil, err
			}
			cell.Coords[a] = axisValue{Name: ax.Name, Value: label(raw)}
		}
		substituted, err := json.Marshal(tree)
		if err != nil {
			return nil, fmt.Errorf("campaign: marshal cell %d: %w", n, err)
		}
		if cell.Spec, err = decodeJSON[JobSpec](bytes.NewReader(substituted)); err != nil {
			return nil, fmt.Errorf("campaign: cell %d (%s): %w", n, coordString(cell.Coords), err)
		}
		if err := cell.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("campaign: cell %d (%s): %w", n, coordString(cell.Coords), err)
		}
		cells = append(cells, cell)

		// Advance the coordinate vector: last axis fastest.
		for a := len(idx) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(axes[a]) {
				break
			}
			idx[a] = 0
		}
	}
	return cells, nil
}

// coordString renders coordinates as "a=1 b=ssd" for error messages.
func coordString(coords []axisValue) string {
	parts := make([]string, len(coords))
	for i, c := range coords {
		parts[i] = c.Name + "=" + c.Value
	}
	return strings.Join(parts, " ")
}
