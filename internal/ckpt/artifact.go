package ckpt

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/binio"
	"repro/internal/blob"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/prog"
)

// Artifact container: gzip over a record stream. Each record is a
// one-byte tag plus a u32-length-prefixed binio payload, so a reader
// holds exactly one window's state in memory at a time — the fix for
// the unbounded rep.Checkpoints accumulation the in-memory predecessor
// suffered from.
//
// Format 3 stores only what a window needs and cannot recompute. Each
// window is a delta against the previous one, because consecutive
// windows share nearly all of their state: the emulator checkpoint
// carries only the pages that changed (emu.MarshalDelta), and the cache
// and predictor state bytes carry only the diffBlock-byte blocks that
// changed (appendDiff). The first window's checkpoint is a delta
// against the program's initial data image, which the reader rebuilds
// from the program it is given. The cache and predictor state records
// each set's LRU order as a one-byte rank per line or BTB entry, not the
// clock that changes on every hit, so a window changes few of those
// bytes. Readers rebuild each window's full state before decoding it,
// so every decoder's validation still runs. Artifacts of formats 1
// (whole windows) and 2 (clocks, and a whole first window) fail the
// version check, and the store treats them as absent: they are
// regenerated, or replaced by a peer's current artifact.
const (
	artifactMagic   = "SDIQCKP1"
	artifactVersion = 3

	recWindow  = 1
	recTrailer = 2

	// maxRecordBytes bounds a single record so a corrupt length prefix
	// cannot ask for an absurd allocation. Checkpoints are dominated by
	// the benchmark's mapped pages; the synthetic workloads sit far
	// below this.
	maxRecordBytes = 1 << 30

	// diffBlock is the granularity at which a window's cache and
	// predictor state bytes are compared with the previous window's.
	diffBlock = 32
)

// Window is one sampling window's resume state: everything a detailed
// window needs to run bit-identically to the generating pass —
// architectural checkpoint, warm hierarchy and predictor, the active
// IQ hint, and the window's position in the committed-instruction
// stream.
type Window struct {
	// StartReal is the committed real (non-hint) instruction count at
	// the window start; the resume path derives the window's detailed
	// length from it exactly as the generate path did.
	StartReal int64
	// LastHint is the most recent issue-queue hint at the window start
	// (Core.PresetHint input).
	LastHint int
	// Ckpt is the architectural state at the window start.
	Ckpt emu.Checkpoint
	// Mem and Bp are the functionally-warmed microarchitectural state at
	// the window start. On read they are the reader's own storage, into
	// which every record decodes: the consumer may change them, as a
	// detailed run does, until the next call to Next overwrites them. On
	// write the writer only encodes them: the caller keeps its storage
	// and may overwrite it for the next window.
	Mem *cache.Hierarchy
	Bp  *bpred.Predictor
}

// Trailer closes an artifact with the generating run's phase totals, so
// a resumed run reports the same instruction accounting without ever
// touching the functional stream.
type Trailer struct {
	TotalReal       int64
	WarmedReal      int64
	FastForwardReal int64
	Windows         int
}

// Writer streams an artifact to disk; Commit publishes it atomically,
// anything less leaves no trace. Create one via Store.Create.
type Writer struct {
	s     *Store
	key   string
	f     *os.File
	gz    *gzip.Writer
	n     int
	done  bool
	wrote countingWriter

	// The previous window's state: the base of the next window's delta.
	prevCkpt        emu.Checkpoint
	prevMem, prevBp []byte
	// Buffers reused from window to window: the current window's state
	// bytes, which swap with prevMem and prevBp once written, and the
	// record payload.
	mem, bp, payload []byte
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Create starts a new artifact for key. The budget is recorded in the
// header as a sanity cross-check for resumers. A nil store returns
// (nil, nil); callers treat a nil writer as "not recording".
func (s *Store) Create(key string, budget int64) (*Writer, error) {
	if s == nil {
		return nil, nil
	}
	f, err := s.blob.Temp(key)
	if err != nil {
		return nil, fmt.Errorf("ckpt: create %.12s: %w", key, err)
	}
	w := &Writer{s: s, key: key, f: f}
	w.wrote = countingWriter{w: f}
	w.gz, _ = gzip.NewWriterLevel(&w.wrote, gzip.BestSpeed)
	var hdr binio.Writer
	hdr.Raw([]byte(artifactMagic))
	hdr.U32(artifactVersion)
	hdr.I64(budget)
	if _, err := w.gz.Write(hdr.Bytes()); err != nil {
		blob.Discard(f)
		return nil, err
	}
	return w, nil
}

// record writes one tagged, length-prefixed payload.
func (w *Writer) record(tag uint8, payload []byte) error {
	var hdr binio.Writer
	hdr.U8(tag)
	hdr.U32(uint32(len(payload)))
	if _, err := w.gz.Write(hdr.Bytes()); err != nil {
		return err
	}
	_, err := w.gz.Write(payload)
	return err
}

// Append adds one window's resume state, as a delta against the
// previous window's. A hierarchy or predictor with a set wider than
// binio.MaxRankWays has no format-3 encoding: Append refuses its first
// window, so no artifact of it is published and every run of it warms
// from scratch, with the same results.
func (w *Writer) Append(win *Window) error {
	first := w.n == 0
	var base *emu.Checkpoint
	if first {
		for _, ways := range []int{win.Mem.IL1.Config().Assoc, win.Mem.DL1.Config().Assoc, win.Mem.L2.Config().Assoc, win.Bp.Config().BTBAssoc} {
			if ways > binio.MaxRankWays {
				return fmt.Errorf("ckpt: %d-way sets have no one-byte LRU ranks", ways)
			}
		}
	} else {
		base = &w.prevCkpt
	}
	ck, err := win.Ckpt.MarshalDelta(base)
	if err != nil {
		return err
	}
	w.mem = win.Mem.AppendState(w.mem[:0])
	w.bp = win.Bp.AppendState(w.bp[:0])
	b := binio.NewWriter(w.payload[:0])
	b.I64(win.StartReal)
	b.I64(int64(win.LastHint))
	b.U32(uint32(len(ck)))
	b.Raw(ck)
	appendDiff(b, w.prevMem, w.mem, first)
	appendDiff(b, w.prevBp, w.bp, first)
	w.payload = b.Bytes()
	if err := w.record(recWindow, w.payload); err != nil {
		return err
	}
	w.prevCkpt = win.Ckpt
	w.prevMem, w.mem = w.mem, w.prevMem
	w.prevBp, w.bp = w.bp, w.prevBp
	w.n++
	return nil
}

// appendDiff writes state as a diff against prev: its length, then
// either the whole bytes (the first window, or a length change) or the
// runs of diffBlock-byte blocks that changed, as a run count and then
// each run's offset, length and bytes.
func appendDiff(w *binio.Writer, prev, state []byte, first bool) {
	w.U32(uint32(len(state)))
	if first || len(prev) != len(state) {
		w.Raw(state)
		return
	}
	var runs [][2]int // [start, end) byte ranges
	for off := 0; off < len(state); off += diffBlock {
		end := min(off+diffBlock, len(state))
		if bytes.Equal(prev[off:end], state[off:end]) {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1][1] == off {
			runs[n-1][1] = end
		} else {
			runs = append(runs, [2]int{off, end})
		}
	}
	w.U32(uint32(len(runs)))
	for _, run := range runs {
		w.U32(uint32(run[0]))
		w.U32(uint32(run[1] - run[0]))
		w.Raw(state[run[0]:run[1]])
	}
}

// readDiff applies one appendDiff diff to state, the previous window's
// bytes, and returns this window's bytes. It patches state in place.
func readDiff(b *binio.Reader, state []byte, first bool) ([]byte, error) {
	n := int(b.U32())
	if err := b.Err(); err != nil {
		return nil, err
	}
	if n > maxRecordBytes {
		return nil, fmt.Errorf("ckpt: implausible state size %d", n)
	}
	if first || n != len(state) {
		whole := b.Raw(n)
		if err := b.Err(); err != nil {
			return nil, err
		}
		return append(state[:0], whole...), nil
	}
	runs := int(b.U32())
	for i := 0; i < runs; i++ {
		off, size := int(b.U32()), int(b.U32())
		if err := b.Err(); err != nil {
			return nil, err
		}
		if off > n || size > n-off {
			return nil, fmt.Errorf("ckpt: state diff run [%d, +%d) outside %d bytes", off, size, n)
		}
		copy(state[off:], b.Raw(size))
	}
	if err := b.Err(); err != nil {
		return nil, err
	}
	return state, nil
}

// Commit writes the trailer, finishes the stream and atomically
// publishes the artifact under its key. An artifact already published
// under the key is kept — the first writer wins, as for WriteRaw — and
// this one is dropped without counting as generated.
func (w *Writer) Commit(tr Trailer) error {
	if w.done {
		return errors.New("ckpt: writer already finished")
	}
	w.done = true
	tr.Windows = w.n
	var b binio.Writer
	b.I64(tr.TotalReal)
	b.I64(tr.WarmedReal)
	b.I64(tr.FastForwardReal)
	b.U32(uint32(tr.Windows))
	if err := w.record(recTrailer, b.Bytes()); err != nil {
		blob.Discard(w.f)
		return err
	}
	if err := w.gz.Close(); err != nil {
		blob.Discard(w.f)
		return err
	}
	published, err := w.s.blob.Publish(w.key, w.f)
	if published {
		w.s.generated.Add(1)
		w.s.bytesWritten.Add(w.wrote.n)
	}
	return err
}

// Abort abandons the artifact; the store is left as if Create never
// happened. Safe after Commit (no-op) and on a nil writer.
func (w *Writer) Abort() {
	if w == nil || w.done {
		return
	}
	w.done = true
	blob.Discard(w.f)
}

// Reader consumes a published artifact window by window. Create one via
// Store.OpenArtifact. It decodes every window into storage it owns and
// reuses: one Window, with one hierarchy and one predictor, and the
// record's header and payload buffers. A record it cannot decode, or a
// stream whose checksum fails, evicts the artifact from its store.
type Reader struct {
	s       *Store
	key     string
	f       *os.File
	gz      *gzip.Reader
	prog    *prog.Program
	ccfg    cache.HierarchyConfig
	bcfg    bpred.Config
	trailer *Trailer
	read    int

	// The previous window's state: the base the next window's delta
	// patches.
	prevCkpt emu.Checkpoint
	mem, bp  []byte

	win     Window
	hdr     [5]byte
	payload []byte
}

// OpenArtifact opens the artifact for key, generated by a run of the
// given budget, marks it recently used, and prepares to deserialize its
// windows against the given program and configuration. A missing
// artifact returns an error wrapping fs.ErrNotExist and counts a store
// miss, as does one whose header records another budget, which is kept
// (the campaign layer's keys include the budget). One whose header
// cannot be read is evicted. An open counts a hit. A nil store always
// misses.
func (s *Store) OpenArtifact(key string, budget int64, p *prog.Program, ccfg cache.HierarchyConfig, bcfg bpred.Config) (*Reader, error) {
	if s == nil {
		return nil, os.ErrNotExist
	}
	f, err := s.blob.Open(key)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) && blob.ValidKey(key) {
			s.misses.Add(1)
		}
		return nil, err
	}
	if info, err := f.Stat(); err == nil {
		s.bytesRead.Add(info.Size())
	}
	r := &Reader{s: s, key: key, f: f, prog: p, ccfg: ccfg, bcfg: bcfg}
	var got int64
	if r.gz, err = gzip.NewReader(f); err == nil {
		got, err = readHeader(r.gz)
	}
	if err != nil {
		r.Close()
		s.evict(key)
		return nil, fmt.Errorf("ckpt: %s: %w", key, err)
	}
	if got != budget {
		r.Close()
		s.misses.Add(1)
		return nil, fmt.Errorf("ckpt: %s: generated for a budget of %d, not %d: %w", key, got, budget, os.ErrNotExist)
	}
	s.hits.Add(1)
	return r, nil
}

// readHeader reads the header that opens every artifact's record
// stream, magic, version and the generating run's budget, and fails
// unless it is the current format's.
func readHeader(gz io.Reader) (budget int64, err error) {
	hdr := make([]byte, len(artifactMagic)+4+8)
	if _, err := io.ReadFull(gz, hdr); err != nil {
		return 0, fmt.Errorf("short header: %w", err)
	}
	b := binio.NewReader(hdr)
	if string(b.Raw(len(artifactMagic))) != artifactMagic {
		return 0, errors.New("bad artifact magic")
	}
	if v := b.U32(); v != artifactVersion {
		return 0, fmt.Errorf("artifact version %d, want %d", v, artifactVersion)
	}
	return b.I64(), nil
}

// currentFormat reports whether a container opens with the current
// format's header. It reads no further, so a current container may
// still be corrupt past its header.
func currentFormat(container io.Reader) bool {
	gz, err := gzip.NewReader(container)
	if err != nil {
		return false
	}
	defer gz.Close()
	_, err = readHeader(gz)
	return err == nil
}

// Next returns the next window, or a bare io.EOF once the trailer has
// been read, so Trailer then reports it. The trailer must end the
// stream, whose gzip checksum is verified then. Any other error means
// the artifact is unusable, and it is evicted.
//
// The window is the reader's own storage and is valid until the next
// call to Next, which decodes the next record into it. Its checkpoint
// is the exception: each window's is its own and stays valid.
func (r *Reader) Next() (*Window, error) {
	win, err := r.next()
	if err != nil && err != io.EOF {
		r.s.evict(r.key)
	}
	return win, err
}

func (r *Reader) next() (*Window, error) {
	if r.trailer != nil {
		return nil, io.EOF
	}
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.gz, hdr); err != nil {
		return nil, fmt.Errorf("ckpt: truncated artifact (no trailer): %w", err)
	}
	h := binio.NewReader(hdr)
	tag := h.U8()
	n := int(h.U32())
	if n < 0 || n > maxRecordBytes {
		return nil, fmt.Errorf("ckpt: implausible record size %d", n)
	}
	var err error
	if r.payload, err = readPayload(r.gz, n, r.payload); err != nil {
		return nil, fmt.Errorf("ckpt: truncated record: %w", err)
	}
	b := binio.NewReader(r.payload)
	switch tag {
	case recTrailer:
		tr := Trailer{
			TotalReal:       b.I64(),
			WarmedReal:      b.I64(),
			FastForwardReal: b.I64(),
			Windows:         int(b.U32()),
		}
		if err := b.Err(); err != nil {
			return nil, err
		}
		if b.Remaining() != 0 {
			return nil, fmt.Errorf("ckpt: %d trailing bytes in trailer record", b.Remaining())
		}
		if tr.Windows != r.read {
			return nil, fmt.Errorf("ckpt: trailer records %d windows, artifact held %d", tr.Windows, r.read)
		}
		// gzip compares the CRC-32 and length in its footer only once the
		// stream is read to its end.
		if k, err := io.ReadFull(r.gz, hdr[:1]); k != 0 {
			return nil, errors.New("ckpt: bytes after the artifact trailer")
		} else if err != io.EOF {
			return nil, fmt.Errorf("ckpt: artifact stream: %w", err)
		}
		r.trailer = &tr
		return nil, io.EOF
	case recWindow:
		startReal, lastHint := b.I64(), int(b.I64())
		ckBytes := b.Raw(int(b.U32()))
		if err := b.Err(); err != nil {
			return nil, err
		}
		first := r.read == 0
		if r.mem, err = readDiff(b, r.mem, first); err != nil {
			return nil, err
		}
		if r.bp, err = readDiff(b, r.bp, first); err != nil {
			return nil, err
		}
		if b.Remaining() != 0 {
			return nil, fmt.Errorf("ckpt: %d trailing bytes in window record", b.Remaining())
		}
		var base *emu.Checkpoint
		if !first {
			base = &r.prevCkpt
		}
		ck, err := emu.UnmarshalCheckpointDelta(ckBytes, r.prog, base)
		if err != nil {
			return nil, err
		}
		r.prevCkpt = ck
		win := &r.win
		if win.Mem == nil {
			if win.Mem, err = cache.NewHierarchy(r.ccfg); err != nil {
				return nil, err
			}
			win.Bp = bpred.New(r.bcfg)
		}
		if err := win.Mem.UnmarshalState(r.mem); err != nil {
			return nil, err
		}
		if err := win.Bp.UnmarshalState(r.bp); err != nil {
			return nil, err
		}
		win.StartReal, win.LastHint, win.Ckpt = startReal, lastHint, ck
		r.read++
		return win, nil
	default:
		return nil, fmt.Errorf("ckpt: unknown record tag %d", tag)
	}
}

// readPayload reads an n-byte record payload into buf's storage and
// returns it. It grows the buffer only as the bytes arrive, so a corrupt
// length prefix cannot allocate much more than the stream holds.
func readPayload(rd io.Reader, n int, buf []byte) ([]byte, error) {
	const chunk = 1 << 20
	buf = buf[:0]
	for len(buf) < n {
		k := min(n-len(buf), chunk)
		buf = slices.Grow(buf, k)
		if _, err := io.ReadFull(rd, buf[len(buf):len(buf)+k]); err != nil {
			return buf, err
		}
		buf = buf[:len(buf)+k]
	}
	return buf, nil
}

// Trailer returns the artifact's trailer; ok is false until Next has
// returned io.EOF.
func (r *Reader) Trailer() (Trailer, bool) {
	if r.trailer == nil {
		return Trailer{}, false
	}
	return *r.trailer, true
}

// Close releases the reader.
func (r *Reader) Close() error {
	if r.gz != nil {
		r.gz.Close()
	}
	return r.f.Close()
}

// checkContainer validates data as an artifact container, before
// WriteRaw publishes it and before ReadRaw hands it out: gzip, magic and
// version, and a gzip stream that reads to its end with a matching
// checksum.
func checkContainer(data []byte) error {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("not an artifact: %w", err)
	}
	defer gz.Close()
	if _, err := readHeader(gz); err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, gz); err != nil {
		return fmt.Errorf("artifact stream: %w", err)
	}
	return nil
}
