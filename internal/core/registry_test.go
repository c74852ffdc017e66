package core

import (
	"strings"
	"testing"

	"ossd/internal/ftl"
	"ossd/internal/sched"
	"ossd/internal/trace"
)

func TestOpenResolvesEveryRegisteredProfile(t *testing.T) {
	for _, p := range ExtendedProfiles() {
		d, err := Open(p.Name)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if d.LogicalBytes() <= 0 {
			t.Fatalf("%s: no capacity", p.Name)
		}
	}
}

func TestOpenUnknownProfile(t *testing.T) {
	_, err := Open("no-such-device")
	if err == nil || !strings.Contains(err.Error(), "no-such-device") {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenKindBases(t *testing.T) {
	wantKind := map[string]Kind{
		"ssd": KindSSD, "hdd": KindHDD, "mems": KindMEMS, "raid": KindRAID, "osd": KindOSD,
	}
	for name, kind := range wantKind {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind != kind {
			t.Fatalf("%s resolved to kind %s", name, p.Kind)
		}
		d, err := Open(name)
		if err != nil {
			t.Fatal(err)
		}
		switch name {
		case "ssd":
			if _, ok := d.(*SSD); !ok {
				t.Fatalf("ssd built %T", d)
			}
		case "hdd":
			if _, ok := d.(*HDD); !ok {
				t.Fatalf("hdd built %T", d)
			}
		case "mems":
			if _, ok := d.(*MEMS); !ok {
				t.Fatalf("mems built %T", d)
			}
		case "raid":
			if _, ok := d.(*RAID); !ok {
				t.Fatalf("raid built %T", d)
			}
		case "osd":
			o, ok := d.(*OSD)
			if !ok {
				t.Fatalf("osd built %T", d)
			}
			// The volume spans the raw device, and block I/O through it
			// is background, not priority, traffic.
			if o.LogicalBytes() != o.Raw.LogicalBytes() {
				t.Fatalf("osd volume %d bytes, device %d", o.LogicalBytes(), o.Raw.LogicalBytes())
			}
			if err := o.Submit(trace.Op{Kind: trace.Write, Offset: 0, Size: 4096}, nil); err != nil {
				t.Fatal(err)
			}
			o.Engine().Run()
			if m := o.Raw.Metrics(); m.BgResp.N() != 1 || m.PriResp.N() != 0 {
				t.Fatalf("osd block write: %d background, %d priority responses; want 1, 0", m.BgResp.N(), m.PriResp.N())
			}
		}
	}
}

// Every built-in profile has a name, and no two share one: the names
// are the registry's keys.
func TestBuiltinProfileNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range ExtendedProfiles() {
		if p.Name == "" {
			t.Fatalf("built-in profile without a name: %+v", p)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate built-in profile %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestBuildCustomProfile(t *testing.T) {
	cfg := BaseSSDConfig()
	cfg.Elements = 2
	d, err := Build(Profile{Name: "test-custom-ssd", Kind: KindSSD, SSD: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if sd, ok := d.(*SSD); !ok || sd.Raw.Config().Elements != 2 {
		t.Fatalf("custom profile built %T", d)
	}
}

func TestOptionsApply(t *testing.T) {
	d, err := Open("ssd",
		WithScheme(ftl.BlockMapped),
		WithScheduler(sched.FCFS),
		WithStripe(32<<10),
		WithInformed(true),
		WithPriorityAware(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.(*SSD).Raw.Config()
	if cfg.Scheme != ftl.BlockMapped || cfg.Scheduler != sched.FCFS {
		t.Fatalf("scheme/scheduler: %+v", cfg)
	}
	if cfg.StripeBytes != 32<<10 || !cfg.Informed || !cfg.PriorityAware {
		t.Fatalf("stripe/informed/aware: %+v", cfg)
	}
}

func TestOptionsDoNotMutateRegistry(t *testing.T) {
	if _, err := Open("ssd", WithScheme(ftl.BlockMapped)); err != nil {
		t.Fatal(err)
	}
	p, err := ProfileByName("ssd")
	if err != nil {
		t.Fatal(err)
	}
	if p.SSD.Scheme == ftl.BlockMapped {
		t.Fatal("option leaked into the registry")
	}
}

func TestWithCapacity(t *testing.T) {
	small, err := Open("ssd", WithCapacity(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Open("ssd", WithCapacity(256<<20))
	if err != nil {
		t.Fatal(err)
	}
	if small.LogicalBytes() >= big.LogicalBytes() {
		t.Fatalf("capacity option ignored: %d vs %d", small.LogicalBytes(), big.LogicalBytes())
	}
	// Within geometry rounding of the request.
	if got := small.LogicalBytes(); got < 24<<20 || got > 48<<20 {
		t.Fatalf("32 MiB request built %d bytes", got)
	}
	h, err := Open("hdd", WithCapacity(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if h.LogicalBytes() != 1<<30 {
		t.Fatalf("hdd capacity %d", h.LogicalBytes())
	}
}

func TestOptionsRejectWrongKind(t *testing.T) {
	if _, err := Open("hdd", WithScheme(ftl.PageMapped)); err == nil {
		t.Fatal("hdd accepted an FTL scheme")
	}
	if _, err := Open("mems", WithStripe(64<<10)); err == nil {
		t.Fatal("mems accepted a stripe")
	}
	if _, err := Open("raid", WithInformed(true)); err == nil {
		t.Fatal("raid accepted informed cleaning")
	}
}

// Drive on a registry-built device honors timestamps and leaves the
// device drained — the stream path end to end.
func TestOpenThenDrive(t *testing.T) {
	d, err := Open("ssd")
	if err != nil {
		t.Fatal(err)
	}
	var st trace.Stats
	s := trace.Tally(trace.FromSlice([]trace.Op{
		{At: 0, Kind: trace.Write, Offset: 0, Size: 4096},
		{At: 1000, Kind: trace.Write, Offset: 4096, Size: 4096},
		{At: 2000, Kind: trace.Read, Offset: 0, Size: 4096},
		{At: 3000, Kind: trace.Free, Offset: 4096, Size: 4096},
	}), &st)
	if err := d.Drive(s); err != nil {
		t.Fatal(err)
	}
	if st.Ops != 4 || st.Frees != 1 {
		t.Fatalf("tally: %+v", st)
	}
	m := d.Metrics()
	if m.BytesWritten != 8192 || m.BytesRead != 4096 || m.Frees != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if d.Engine().Pending() != 0 {
		t.Fatal("drive left events pending")
	}
}

// TestOpenAllocsFlat is the allocation gate on building a flash device.
// Every FTL array starts at its pristine value, zero, and is carved from
// one backing per element, so an open allocates a fixed number of
// objects whatever the page count: the base ssd and osd profiles at 64
// and at 256 blocks per package allocate exactly the pinned counts.
// Of those, the dispatch queue adds none for interning: a gang of at
// most 64 elements interns its element sets into a slice made on first
// push, with no map and no scratch. A device that is not priority-aware
// installs no post-dispatch hook, so it allocates no method value for
// one. (A map and scratch per queue and the hook cost 67 and 79.)
func TestOpenAllocsFlat(t *testing.T) {
	for _, tc := range []struct {
		kind string
		want float64
	}{
		{"ssd", 64},
		// The osd's volume object takes the first slot of the store's
		// file table: the table's chunk index and one 256-entry chunk.
		{"osd", 76},
	} {
		for _, blocks := range []int{64, 256} {
			cfg := BaseSSDConfig()
			cfg.Geom = geom(blocks)
			opt := WithSSD(cfg)
			got := testing.AllocsPerRun(10, func() {
				if _, err := Open(tc.kind, opt); err != nil {
					t.Fatal(err)
				}
			})
			if got != tc.want {
				t.Errorf("Open(%q) at %d blocks per package: %v allocs, want %v", tc.kind, blocks, got, tc.want)
			}
		}
	}
}
