package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"ossd/internal/simsvc"
)

// campaignFlags carries the -campaign client mode's knobs.
type campaignFlags struct {
	specPath string
	addr     string
	rows     string
	cols     string
	metric   string
	asJSON   bool
}

// get issues a GET and returns the response body, failing on any status
// but 200.
func get(url string) (io.ReadCloser, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return resp.Body, nil
}

// runCampaign drives a remote sweep: POST the spec file to simd, poll
// progress to stderr until the campaign is terminal, then copy the
// server's answer to out unchanged: the cell results as NDJSON from
// /stream (-json), or the comparison table across two axes from /table.
// It returns whether any cell failed.
func runCampaign(out io.Writer, f campaignFlags) (failed bool, err error) {
	specBytes, err := os.ReadFile(f.specPath)
	if err != nil {
		return false, err
	}
	base := strings.TrimSuffix(f.addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	resp, err := http.Post(base+"/campaigns", "application/json", bytes.NewReader(specBytes))
	if err != nil {
		return false, err
	}
	var prog simsvc.CampaignProgress
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return false, fmt.Errorf("POST /campaigns: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &prog); err != nil {
		return false, err
	}
	fmt.Fprintf(os.Stderr, "campaign %s: %d cells over axes %s\n",
		prog.ID, prog.Total, strings.Join(prog.Axes, ", "))

	for prog.Status == "running" {
		time.Sleep(500 * time.Millisecond)
		r, err := get(base + "/campaigns/" + prog.ID)
		if err != nil {
			return false, err
		}
		err = json.NewDecoder(r).Decode(&prog)
		r.Close()
		if err != nil {
			return false, err
		}
		shed := ""
		if prog.Shed > 0 {
			shed = fmt.Sprintf(", %d shed", prog.Shed)
		}
		fmt.Fprintf(os.Stderr, "%s: %d/%d settled (%d cached, %d failed, %d running%s) eta %.0fs\n",
			prog.ID, prog.Done+prog.Failed, prog.Total, prog.CacheHits, prog.Failed, prog.Running, shed, prog.ETASeconds)
	}
	if prog.Shed > 0 {
		fmt.Fprintf(os.Stderr, "%s: server shed %d submit attempts (all retried)\n", prog.ID, prog.Shed)
	}

	target := base + "/campaigns/" + prog.ID + "/table?" +
		url.Values{"rows": {f.rows}, "cols": {f.cols}, "metric": {f.metric}}.Encode()
	if f.asJSON {
		target = base + "/campaigns/" + prog.ID + "/stream"
	}
	r, err := get(target)
	if err != nil {
		return false, err
	}
	defer r.Close()
	if _, err := io.Copy(out, r); err != nil {
		return false, err
	}
	return prog.Failed > 0, nil
}
