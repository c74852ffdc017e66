package simsvc

import (
	"encoding/json"
	"fmt"
	"strings"

	"ossd/internal/stats"
)

// metricValue resolves a dotted path ("write_mbps",
// "snapshot.read_p99_ms", …) in a cell's result payload to a number.
func metricValue(result []byte, path string) (float64, error) {
	var tree map[string]any
	if err := json.Unmarshal(result, &tree); err != nil {
		return 0, fmt.Errorf("campaign: decode result: %w", err)
	}
	segs := strings.Split(path, ".")
	var cur any = tree
	for _, seg := range segs {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0, fmt.Errorf("campaign: metric %q: %q is not an object", path, seg)
		}
		cur, ok = obj[seg]
		if !ok {
			return 0, fmt.Errorf("campaign: metric %q: no field %q", path, seg)
		}
	}
	v, ok := cur.(float64)
	if !ok {
		return 0, fmt.Errorf("campaign: metric %q is not a number", path)
	}
	return v, nil
}

// coord returns the cell's value on the named axis.
func coord(cr cellResult, axis string) (string, bool) {
	for _, c := range cr.Coords {
		if c.Name == axis {
			return c.Value, true
		}
	}
	return "", false
}

// resolveTableAxes applies GET /campaigns/{id}/table's defaulting:
// empty rows/cols fall back to the campaign's first two axes, an empty
// metric to write_mbps.
func resolveTableAxes(axes []string, rows, cols, metric string) (string, string, string, error) {
	if rows == "" || cols == "" {
		if len(axes) < 2 {
			return "", "", "", fmt.Errorf("campaign: table needs two axes (campaign has %d); pass rows= and cols=", len(axes))
		}
		if rows == "" {
			rows = axes[0]
		}
		if cols == "" {
			for _, ax := range axes {
				if ax != rows {
					cols = ax
					break
				}
			}
		}
	}
	if metric == "" {
		metric = "write_mbps"
	}
	return rows, cols, metric, nil
}

// campaignTable renders GET /campaigns/{id}/table, a comparison of
// metric across two axes, as a stats.Grid: rows axis values down, cols
// axis values across, each cell the metric of the done cells at that
// coordinate pair (averaged when further axes leave more than one cell
// per pair). Row and column labels appear in first-seen order over
// cells in deterministic cell order, which is exactly the axes'
// declared value order. rows and cols come through resolveTableAxes,
// so neither is empty.
func campaignTable(title string, cells []cellResult, rows, cols, metric string) (*stats.Grid, error) {
	if rows == cols {
		return nil, fmt.Errorf("campaign: rows and cols are both %q", rows)
	}
	g := stats.NewGrid(title, rows+` \ `+cols)
	var pending, failed int
	var metricErr error
	for _, cr := range cells {
		r, okR := coord(cr, rows)
		c, okC := coord(cr, cols)
		if !okR || !okC {
			missing := rows
			if okR {
				missing = cols
			}
			return nil, fmt.Errorf("campaign: no axis %q (have %s)", missing, coordString(cr.Coords))
		}
		switch {
		case cr.Status == StatusDone && len(cr.Result) > 0:
			v, err := metricValue(cr.Result, metric)
			if err != nil {
				// A metric that resolves on no cell is a caller error;
				// report the first instance instead of an empty grid.
				if metricErr == nil {
					metricErr = err
				}
				continue
			}
			g.Add(r, c, v)
		case cr.Status == StatusFailed:
			failed++
		default:
			pending++
		}
	}
	if g.MaxN() == 0 && metricErr != nil {
		return nil, metricErr
	}
	if n := g.MaxN(); n > 1 {
		g.AddNote("cells average up to %d runs across the remaining axes", n)
	}
	if pending > 0 {
		g.AddNote("%d cells still pending", pending)
	}
	if failed > 0 {
		g.AddNote("%d cells failed", failed)
	}
	return g, nil
}
