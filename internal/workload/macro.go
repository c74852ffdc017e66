package workload

import (
	"fmt"

	"ossd/internal/fsmodel"
	"ossd/internal/sim"
	"ossd/internal/trace"
)

// PostmarkConfig parameterizes the Postmark-style small-file workload
// (Katcher, NetApp TR-3022): a pool of small files churned by
// read/append/create/delete transactions. Running it through the fsmodel
// allocator yields the paper's §3.5 trace: block-level reads and writes
// interleaved with free notifications at deleted files' block ranges.
type PostmarkConfig struct {
	// Transactions is the number of transactions after initial file
	// creation.
	Transactions int
	// InitialFiles seeds the pool.
	InitialFiles int
	// FileSizeMin/Max bound file sizes in bytes (Postmark defaults:
	// 500 B – 9.77 KB; we default to 512 B – 16 KB).
	FileSizeMin, FileSizeMax int64
	// CapacityBytes is the file-system size the trace targets.
	CapacityBytes int64
	// BlockSize is the allocator block size (default 4096).
	BlockSize int64
	// MeanInterarrival spaces transactions (exponential); 0 means
	// back-to-back.
	MeanInterarrival sim.Time
	// NoMetadata suppresses the per-transaction metadata write (inode /
	// journal block). Real file systems interleave metadata writes with
	// data writes, which is what keeps Postmark's writes from coalescing
	// into long contiguous runs.
	NoMetadata bool
	// Seed selects the random stream.
	Seed int64
}

func (c *PostmarkConfig) defaults() error {
	if c.Transactions <= 0 {
		return fmt.Errorf("workload: postmark needs transactions, got %d", c.Transactions)
	}
	if c.InitialFiles <= 0 {
		c.InitialFiles = 100
	}
	if c.BlockSize == 0 {
		c.BlockSize = 4096
	}
	if c.FileSizeMin == 0 {
		c.FileSizeMin = 512
	}
	if c.FileSizeMax == 0 {
		c.FileSizeMax = 16 << 10
	}
	if c.FileSizeMax < c.FileSizeMin {
		return fmt.Errorf("workload: file size max < min")
	}
	if c.CapacityBytes <= 0 {
		return fmt.Errorf("workload: postmark needs capacity")
	}
	return nil
}

// Postmark streams the trace one transaction at a time: the file-system
// model evolves as the stream is pulled, so memory is bounded by the
// live file set, never by the transaction count.
func Postmark(cfg PostmarkConfig) (trace.Stream, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	// Reserve the tail 1/32 of the space for metadata blocks (inode
	// tables, journal); the allocator manages the rest.
	metaBase := cfg.CapacityBytes
	metaBlocks := int64(1)
	if !cfg.NoMetadata {
		metaRegion := cfg.CapacityBytes / 32 / cfg.BlockSize * cfg.BlockSize
		if metaRegion < cfg.BlockSize {
			metaRegion = cfg.BlockSize
		}
		metaBase = cfg.CapacityBytes - metaRegion
		metaBlocks = metaRegion / cfg.BlockSize
	}
	fs, err := fsmodel.New(metaBase, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	var at sim.Time
	// emit is the stream's buffer appender, bound on the first step.
	var emit func(trace.Op)
	tick := func() {
		if cfg.MeanInterarrival > 0 {
			at += rng.Exponential(cfg.MeanInterarrival)
		}
	}
	meta := func(id fsmodel.FileID) {
		if cfg.NoMetadata {
			return
		}
		blk := int64(id) % metaBlocks
		emit(trace.Op{At: at, Kind: trace.Write, Offset: metaBase + blk*cfg.BlockSize, Size: cfg.BlockSize})
	}
	blocksFor := func(bytes int64) int64 {
		return (bytes + cfg.BlockSize - 1) / cfg.BlockSize
	}
	var live []fsmodel.FileID
	writeExtents := func(ex []fsmodel.Extent) {
		for _, e := range ex {
			off, size := e.Bytes(cfg.BlockSize)
			emit(trace.Op{At: at, Kind: trace.Write, Offset: off, Size: size})
		}
	}
	create := func() {
		size := cfg.FileSizeMin + rng.Int63n(cfg.FileSizeMax-cfg.FileSizeMin+1)
		id := fs.Create()
		got, err := fs.Append(id, blocksFor(size))
		if err != nil {
			// Full: delete something instead next round.
			_, _ = fs.Delete(id)
			return
		}
		live = append(live, id)
		writeExtents(got)
		meta(id)
	}
	remove := func() {
		if len(live) == 0 {
			return
		}
		i := rng.Intn(len(live))
		id := live[i]
		live = append(live[:i], live[i+1:]...)
		freed, err := fs.Delete(id)
		if err != nil {
			return
		}
		meta(id)
		for _, e := range freed {
			off, size := e.Bytes(cfg.BlockSize)
			emit(trace.Op{At: at, Kind: trace.Free, Offset: off, Size: size})
		}
	}
	read := func() {
		if len(live) == 0 {
			return
		}
		id := live[rng.Intn(len(live))]
		ex, err := fs.Extents(id)
		if err != nil {
			return
		}
		for _, e := range ex {
			off, size := e.Bytes(cfg.BlockSize)
			emit(trace.Op{At: at, Kind: trace.Read, Offset: off, Size: size})
		}
	}
	appendTx := func() {
		if len(live) == 0 {
			return
		}
		id := live[rng.Intn(len(live))]
		n := blocksFor(cfg.FileSizeMin + rng.Int63n(cfg.FileSizeMax-cfg.FileSizeMin+1)/4)
		if n == 0 {
			n = 1
		}
		got, err := fs.Append(id, n)
		if err != nil {
			return
		}
		writeExtents(got)
		meta(id)
	}

	created, txDone := 0, 0
	return &stepStream{step: func(e func(trace.Op)) bool {
		if emit == nil {
			emit = e
		}
		if created < cfg.InitialFiles {
			created++
			create()
			tick()
			return true
		}
		if txDone >= cfg.Transactions {
			return false
		}
		txDone++
		switch p := rng.Float64(); {
		case p < 0.40:
			read()
		case p < 0.70:
			appendTx()
		case p < 0.85:
			create()
		default:
			remove()
		}
		tick()
		return true
	}}, nil
}

// OLTPConfig parameterizes the TPC-C-style workload: fixed-size page I/O
// (8 KB) with a Zipf-skewed access pattern over the data region, 2:1
// read:write, plus a sequential log-write stream of small records.
type OLTPConfig struct {
	// Ops is the number of data-page operations.
	Ops int
	// CapacityBytes is the device range used.
	CapacityBytes int64
	// PageBytes is the database page size (default 8192).
	PageBytes int64
	// ReadFrac is the data-page read fraction (default 0.66).
	ReadFrac float64
	// LogFrac is the fraction of extra log-write ops interleaved
	// (default 0.25 of Ops).
	LogFrac float64
	// MeanInterarrival spaces ops (exponential); 0 = back-to-back.
	MeanInterarrival sim.Time
	// Seed selects the random stream.
	Seed int64
}

// TPCC streams the trace one data-page operation (plus its occasional
// log append) at a time.
func TPCC(cfg OLTPConfig) (trace.Stream, error) {
	if cfg.Ops <= 0 || cfg.CapacityBytes <= 0 {
		return nil, fmt.Errorf("workload: tpcc needs ops and capacity")
	}
	if cfg.PageBytes == 0 {
		cfg.PageBytes = 8192
	}
	if cfg.ReadFrac == 0 {
		cfg.ReadFrac = 0.66
	}
	if cfg.LogFrac == 0 {
		cfg.LogFrac = 0.25
	}
	rng := sim.NewRNG(cfg.Seed)
	// The log occupies the first 1/16 of the space; data pages the rest.
	logRegion := cfg.CapacityBytes / 16
	dataPages := (cfg.CapacityBytes - logRegion) / cfg.PageBytes
	if dataPages <= 1 {
		return nil, fmt.Errorf("workload: capacity too small for page size")
	}
	zipf := rng.Zipf(1.1, uint64(dataPages))
	var at sim.Time
	logHead := int64(0)
	tick := func() {
		if cfg.MeanInterarrival > 0 {
			at += rng.Exponential(cfg.MeanInterarrival)
		}
	}
	i := 0
	return &stepStream{step: func(emit func(trace.Op)) bool {
		if i >= cfg.Ops {
			return false
		}
		i++
		page := int64(zipf.Uint64())
		off := logRegion + page*cfg.PageBytes
		kind := trace.Write
		if rng.Bool(cfg.ReadFrac) {
			kind = trace.Read
		}
		emit(trace.Op{At: at, Kind: kind, Offset: off, Size: cfg.PageBytes})
		tick()
		if rng.Bool(cfg.LogFrac) {
			// Sequential log append, 512 B – 4 KB records.
			rec := (rng.Int63n(8) + 1) * 512
			if logHead+rec > logRegion {
				logHead = 0
			}
			emit(trace.Op{At: at, Kind: trace.Write, Offset: logHead, Size: rec})
			logHead += rec
			tick()
		}
		return true
	}}, nil
}

// ExchangeConfig parameterizes the Exchange-server-style workload: 8 KB
// random mailbox-database I/O at roughly 2:1 read:write, with periodic
// 32 KB sequential bursts (database maintenance and log flushes).
type ExchangeConfig struct {
	Ops           int
	CapacityBytes int64
	// BurstFrac is the fraction of iterations that issue a 32 KB
	// sequential burst (default 0.10).
	BurstFrac        float64
	MeanInterarrival sim.Time
	Seed             int64
}

// Exchange streams the trace one iteration (a page op or a burst) at a
// time.
func Exchange(cfg ExchangeConfig) (trace.Stream, error) {
	if cfg.Ops <= 0 || cfg.CapacityBytes <= 0 {
		return nil, fmt.Errorf("workload: exchange needs ops and capacity")
	}
	const page = 8192
	if cfg.BurstFrac == 0 {
		cfg.BurstFrac = 0.10
	}
	rng := sim.NewRNG(cfg.Seed)
	pages := cfg.CapacityBytes / page
	if pages <= 8 {
		return nil, fmt.Errorf("workload: capacity too small")
	}
	var at sim.Time
	tick := func() {
		if cfg.MeanInterarrival > 0 {
			at += rng.Exponential(cfg.MeanInterarrival)
		}
	}
	burst := int64(0)
	i := 0
	return &stepStream{step: func(emit func(trace.Op)) bool {
		if i >= cfg.Ops {
			return false
		}
		i++
		if rng.Bool(cfg.BurstFrac) {
			// 32 KB sequential burst: 4 contiguous pages.
			start := rng.Int63n(pages-8) * page
			run := int64(4)
			if burst%2 == 0 {
				for k := int64(0); k < run; k++ {
					emit(trace.Op{At: at, Kind: trace.Write, Offset: start + k*page, Size: page})
				}
			} else {
				emit(trace.Op{At: at, Kind: trace.Read, Offset: start, Size: run * page})
			}
			burst++
			tick()
			return true
		}
		kind := trace.Write
		if rng.Bool(0.6) {
			kind = trace.Read
		}
		emit(trace.Op{At: at, Kind: kind, Offset: rng.Int63n(pages) * page, Size: page})
		tick()
		return true
	}}, nil
}

// IOzoneConfig parameterizes the IOzone-style workload: phased sequential
// write / rewrite / read / reread of one large file in fixed-size
// records. The file rarely starts stripe-aligned, which is why the paper
// sees its largest alignment win (36.5%) here.
type IOzoneConfig struct {
	// FileBytes is the test file size.
	FileBytes int64
	// RecordBytes is the I/O unit (default 128 KB).
	RecordBytes int64
	// FileOffset is where the file starts in the address space; an
	// unaligned default (3 blocks) reflects allocator placement.
	FileOffset int64
	// MeanInterarrival spaces records (exponential); 0 = back-to-back.
	MeanInterarrival sim.Time
	// Seed selects the random stream.
	Seed int64
}

// IOzone streams the trace one record at a time across the four phases.
func IOzone(cfg IOzoneConfig) (trace.Stream, error) {
	if cfg.FileBytes <= 0 {
		return nil, fmt.Errorf("workload: iozone needs a file size")
	}
	if cfg.RecordBytes == 0 {
		cfg.RecordBytes = 128 << 10
	}
	if cfg.FileOffset == 0 {
		cfg.FileOffset = 3 * 4096
	}
	rng := sim.NewRNG(cfg.Seed)
	var at sim.Time
	tick := func() {
		if cfg.MeanInterarrival > 0 {
			at += rng.Exponential(cfg.MeanInterarrival)
		}
	}
	phases := []trace.Kind{trace.Write, trace.Write, trace.Read, trace.Read} // write, rewrite, read, reread
	phase := 0
	off := int64(0)
	return trace.Func(func() (trace.Op, bool) {
		for off >= cfg.FileBytes {
			phase++
			if phase >= len(phases) {
				return trace.Op{}, false
			}
			off = 0
		}
		size := cfg.RecordBytes
		if off+size > cfg.FileBytes {
			size = cfg.FileBytes - off
		}
		op := trace.Op{At: at, Kind: phases[phase], Offset: cfg.FileOffset + off, Size: size}
		off += size
		tick()
		return op, true
	}), nil
}
