package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ossd/internal/ring"
)

// TierConfig wires a Manager into a fleet-wide cache tier: the
// content-addressed result cache is consistent-hashed across a static
// set of simd instances so the whole fleet deduplicates work globally.
// Determinism makes every node's answer interchangeable — a payload
// fetched from a peer is byte-identical to one computed locally — so
// the tier is purely an optimization: any peer failure degrades to
// local compute, never to an error.
type TierConfig struct {
	// Self is this instance's advertised base URL (e.g.
	// "http://a:8080"); it must appear spelled identically in every
	// peer's configuration.
	Self string
	// Peers are the other instances' base URLs.
	Peers []string
	// FetchTimeout bounds one owner fetch, including the time spent
	// coalesced behind the owner's in-flight simulation of the same key
	// (<= 0: 2m). On timeout the requester computes locally.
	FetchTimeout time.Duration
	// BreakerCooldown is how long an open breaker skips a peer before
	// probing it again (<= 0: 5s).
	BreakerCooldown time.Duration
}

func (c TierConfig) withDefaults() TierConfig {
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 2 * time.Minute
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// breaker is one peer's circuit breaker: consecutive failures open it,
// a cooldown later the next fetch probes it again (half-open), and one
// success closes it. It exists so a dead peer costs one timed-out probe
// per cooldown instead of one per request.
type breaker struct {
	mu        sync.Mutex
	failures  int
	openUntil time.Time
}

// breakerFailures is the consecutive-failure count that opens a peer's
// circuit breaker.
const breakerFailures = 3

// allow reports whether a fetch may be attempted now.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures < breakerFailures || !now.Before(b.openUntil)
}

// observe records a fetch outcome.
func (b *breaker) observe(ok bool, now time.Time, cooldown time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.failures = 0
		return
	}
	b.failures++
	b.openUntil = now.Add(cooldown)
}

// tier is the Manager's view of the fleet: the ownership ring, one
// breaker per peer, an HTTP client, and the statsz counters.
type tier struct {
	cfg    TierConfig
	ring   *ring.Ring
	client *http.Client

	mu       sync.Mutex
	breakers map[string]*breaker

	peerHits   atomic.Uint64 // owner fetches that returned a payload
	peerMisses atomic.Uint64 // owner answered but had nothing usable
	peerErrors atomic.Uint64 // owner unreachable, timed out, or errored
	peerServes atomic.Uint64 // GET /cache requests this node answered with a payload
	peerStores atomic.Uint64 // PUT /cache entries accepted from non-owners
}

func newTier(cfg TierConfig) *tier {
	cfg = cfg.withDefaults()
	return &tier{
		cfg:      cfg,
		ring:     ring.New(cfg.Self, cfg.Peers, ring.DefaultVirtualNodes),
		client:   &http.Client{Timeout: cfg.FetchTimeout},
		breakers: map[string]*breaker{},
	}
}

// breakerFor returns (creating if needed) the peer's breaker.
func (t *tier) breakerFor(peer string) *breaker {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.breakers[peer]
	if !ok {
		b = &breaker{}
		t.breakers[peer] = b
	}
	return b
}

// owner reports the peer owning key, or "" when this node does (or the
// tier is trivial).
func (t *tier) owner(key uint64) string {
	o := t.ring.Owner(key)
	if o == t.ring.Self() {
		return ""
	}
	return o
}

// cacheURL is the internal endpoint for key on peer.
func cacheURL(peer string, key uint64) string {
	return fmt.Sprintf("%s/cache/%016x", strings.TrimSuffix(peer, "/"), key)
}

// fetch asks key's owner for the payload, coalescing onto the owner's
// in-flight simulation of the same identity (?wait=1): if the owner has
// the entry it serves it, if it is computing it the request blocks
// until the byte-identical payload exists, and if it evicted it the
// owner recomputes. Returns (payload, true) on a fleet hit and (nil,
// false) on anything else — a down or shedding owner is a counted
// degradation to local compute, never an error.
func fetch(ctx context.Context, t *tier, owner string, key uint64, identity []byte) ([]byte, bool) {
	br := t.breakerFor(owner)
	if !br.allow(time.Now()) {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(ctx, t.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cacheURL(owner, key)+"?wait=1", bytes.NewReader(identity))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		t.peerErrors.Add(1)
		br.observe(false, time.Now(), t.cfg.BreakerCooldown)
		return nil, false
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		payload, err := io.ReadAll(resp.Body)
		if err != nil || len(payload) == 0 {
			t.peerErrors.Add(1)
			br.observe(false, time.Now(), t.cfg.BreakerCooldown)
			return nil, false
		}
		t.peerHits.Add(1)
		br.observe(true, time.Now(), t.cfg.BreakerCooldown)
		return payload, true
	case resp.StatusCode == http.StatusNotFound, resp.StatusCode == http.StatusConflict,
		resp.StatusCode == http.StatusTooManyRequests, resp.StatusCode == http.StatusServiceUnavailable:
		// The owner is alive but has nothing for us (no entry and no
		// spec to recompute from, a key collision, or it is shedding):
		// compute locally. Alive answers close the breaker.
		t.peerMisses.Add(1)
		br.observe(true, time.Now(), t.cfg.BreakerCooldown)
		return nil, false
	default:
		t.peerErrors.Add(1)
		br.observe(false, time.Now(), t.cfg.BreakerCooldown)
		return nil, false
	}
}

// pushEnvelope is the PUT /cache/{key} body: a computed payload plus
// the identity it answers, pushed by a non-owner that had to compute
// locally (the owner was shedding or briefly unreachable) so the tier
// still converges on owner-holds-the-entry.
type pushEnvelope struct {
	Identity json.RawMessage `json:"identity"`
	Payload  json.RawMessage `json:"payload"`
}

// push offers a locally computed payload to key's owner, best-effort:
// failures only feed the breaker. Called on a non-owner's local-compute
// completion so the next node asking the owner hits.
func push(t *tier, owner string, key uint64, identity, payload []byte) {
	br := t.breakerFor(owner)
	if !br.allow(time.Now()) {
		return
	}
	body, err := json.Marshal(pushEnvelope{Identity: identity, Payload: payload})
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), t.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, cacheURL(owner, key), bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		br.observe(false, time.Now(), t.cfg.BreakerCooldown)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	br.observe(resp.StatusCode < 500, time.Now(), t.cfg.BreakerCooldown)
}

// TierStats is the tier's observable state (GET /statsz). PeerHits and
// Coalesced are the fleet's dedup dividend: work some other request
// already paid for.
type TierStats struct {
	Self       string   `json:"self"`
	Peers      []string `json:"peers"`
	PeerHits   uint64   `json:"peer_hits"`
	PeerMisses uint64   `json:"peer_misses"`
	PeerErrors uint64   `json:"peer_errors"`
	PeerServes uint64   `json:"peer_serves"`
	PeerStores uint64   `json:"peer_stores"`
	// BreakersOpen lists peers whose circuit is currently open.
	BreakersOpen []string `json:"breakers_open,omitempty"`
}

func (t *tier) stats() TierStats {
	s := TierStats{
		Self:       t.ring.Self(),
		Peers:      t.ring.Members(),
		PeerHits:   t.peerHits.Load(),
		PeerMisses: t.peerMisses.Load(),
		PeerErrors: t.peerErrors.Load(),
		PeerServes: t.peerServes.Load(),
		PeerStores: t.peerStores.Load(),
	}
	now := time.Now()
	t.mu.Lock()
	for peer, b := range t.breakers {
		if !b.allow(now) {
			s.BreakersOpen = append(s.BreakersOpen, peer)
		}
	}
	t.mu.Unlock()
	return s
}
