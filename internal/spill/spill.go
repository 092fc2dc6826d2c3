// Package spill is the out-of-core disk tier of the mrmpi data plane — the
// Go analogue of MR-MPI's page spilling, which is what let the paper
// partition the 53 GB `nr` database on machines with far less memory per
// rank. When a rank's resident KV set exceeds its budget, the hot page is
// written to disk as one *run* (a sequence of CRC32C-framed keyval pages in
// logical append order) and streamed back a frame at a time by the next
// verb, so the resident set never exceeds the budget by more than a frame.
//
// # Run file layout
//
// A run is one file per storage path, `run-%06d.spill`, holding frames:
//
//	uint32 magic ("SPF1") | uint32 payloadLen | payload | uint32 crc32c(payload)
//
// where payload is exactly one keyval.List wire image (so restore is a
// validated keyval.Decode). The frame CRC is always on — independent of the
// PAPAR_PAGE_CRC wire trailer — because disk bit rot is precisely the fault
// this tier exists to detect.
//
// # Fault model
//
// The store consults the cluster's deterministic fault plan on every
// decision, so disk chaos replays exactly:
//
//   - enospc: a path refuses a new run; the store fails over to the buddy
//     path, and a run refused by both fails with a typed *NoSpaceError.
//   - tornwrite: a frame write persists only a prefix; the short-write check
//     catches it, the torn tail is truncated, and the write retries with
//     capped exponential backoff (charged to the virtual timeline). A path
//     that stays torn is abandoned for the surviving copy, or the whole run
//     re-spills to the buddy path.
//   - diskrot: a stored frame replica is damaged; rot is applied to the read
//     bytes (the file itself is untouched, so replays are exact), detected
//     by the frame CRC, and served from the buddy replica when the store
//     replicates. A frame whose every replica is damaged surfaces as a typed
//     *IntegrityError — the job aborts cleanly rather than partition garbage.
//   - slowdisk: a healthy spill tier is fully overlapped with compute and
//     costs zero virtual time (which is what keeps budget-constrained runs
//     makespan-identical to in-memory runs); a slowdisk-degraded node
//     surfaces the nominal disk service time scaled by the plan's factor.
//
// A Store is per-rank and single-goroutine, like the rank it serves; no
// locking is needed or provided.
package spill

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faults"
	"repro/internal/keyval"
	"repro/internal/vtime"
)

const (
	// frameMagic marks one frame header; "SPF1" little-endian.
	frameMagic       = 0x31465053
	frameHeaderSize  = 8
	frameTrailerSize = 4

	// DefaultFrameBytes bounds one frame's page payload: large enough to
	// amortize framing, small enough that restore granularity stays well
	// under any sane budget.
	DefaultFrameBytes = 256 << 10

	// maxWriteAttempts caps the torn-write retry loop per frame and path.
	maxWriteAttempts = 4
	// writeBackoffBase is the first retry's virtual-time backoff; attempt k
	// waits writeBackoffBase << k.
	writeBackoffBase = 100 * vtime.Microsecond
)

// Nominal disk service-time model, surfaced on the timeline only for
// slowdisk-degraded nodes (scaled by the plan's factor; a factor of 1 is a
// nominal, un-overlapped disk).
const (
	DiskLatency        = 100 * vtime.Microsecond
	DiskBytesPerSecond = 1e9
)

// castagnoli is the CRC32C table framing every spill frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats are cumulative spill-tier counters. The same struct carries per-op
// deltas to the Config.Sink.
type Stats struct {
	// SpillPages / SpillBytes count frames written and their on-disk framed
	// bytes (logical: replica copies are not double-counted).
	SpillPages int64
	SpillBytes int64
	// RestorePages / RestoreBytes count frames read back.
	RestorePages int64
	RestoreBytes int64
	// Retries counts frame rewrites after a detected short write.
	Retries int64
	// Failovers counts runs or frame reads diverted to the buddy path.
	Failovers int64
	// RotDetected counts frame replicas that failed validation on read.
	RotDetected int64
	// Stalls / StallBytes count backpressure events: a pinned working set
	// (outbound shuffle pages, a KMV arena) exceeded the budget and the
	// producer stalled on the virtual timeline instead of over-allocating.
	Stalls     int64
	StallBytes int64
}

// Add folds another stats delta into s.
func (s *Stats) Add(d Stats) {
	s.SpillPages += d.SpillPages
	s.SpillBytes += d.SpillBytes
	s.RestorePages += d.RestorePages
	s.RestoreBytes += d.RestoreBytes
	s.Retries += d.Retries
	s.Failovers += d.Failovers
	s.RotDetected += d.RotDetected
	s.Stalls += d.Stalls
	s.StallBytes += d.StallBytes
}

// IntegrityError is the disk tier's last-resort failure: every replica of a
// frame failed validation (CRC mismatch, truncation, or a malformed page),
// or a write could not be persisted on any path. Jobs abort cleanly with it
// instead of producing wrong partitions.
type IntegrityError struct {
	Rank   int
	Run    int64
	Frame  int
	Path   string
	Reason string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("spill: rank %d run %d frame %d (%s): %s",
		e.Rank, e.Run, e.Frame, e.Path, e.Reason)
}

// NoSpaceError reports that every configured path refused a spill run.
type NoSpaceError struct {
	Rank int
	Run  int64
}

func (e *NoSpaceError) Error() string {
	return fmt.Sprintf("spill: rank %d run %d: no space on any path", e.Rank, e.Run)
}

// Config describes one rank's spill store.
type Config struct {
	// Dir is the primary spill directory (created by Open).
	Dir string
	// BuddyDir is the failover path; defaults to Dir + "-buddy".
	BuddyDir string
	// Rank and Node key the deterministic fault decisions.
	Rank int
	Node int
	// Plan supplies the disk faults (nil = fault-free).
	Plan *faults.Plan
	// FrameBytes bounds one frame's page payload (default DefaultFrameBytes).
	FrameBytes int
	// Replicate mirrors every run on the buddy path so a rotten frame can be
	// served from the other copy.
	Replicate bool
	// Charge receives virtual-time costs: torn-write backoffs always, disk
	// service time when the plan degrades this node's disk. Nil = uncharged.
	Charge func(vtime.Duration)
	// Sink receives counter deltas as they happen (nil = totals only).
	Sink func(Stats)
}

// ownerFile marks a directory as claimed by one live Store.
const ownerFile = ".owner"

// Store is one rank's disk tier: a factory for runs and their reader.
type Store struct {
	cfg   Config
	dirs  [2]string
	owner string  // claim file in Dir; "" once released
	scale float64 // slowdisk factor; 0 = disk time fully overlapped
	seq   int64   // frame-write sequence, a fault coordinate
	next  int64   // next run id
	live  map[int64]*Run
	stats Stats
}

// Open creates the store's directories, claims Dir and returns the store.
// The claim is an exclusively created owner file that Close removes, so a
// second live store on the same Dir fails to open instead of deleting the
// first one's runs.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("spill: Config.Dir required")
	}
	if cfg.BuddyDir == "" {
		cfg.BuddyDir = cfg.Dir + "-buddy"
	}
	if cfg.FrameBytes <= 0 {
		cfg.FrameBytes = DefaultFrameBytes
	}
	s := &Store{
		cfg:   cfg,
		dirs:  [2]string{cfg.Dir, cfg.BuddyDir},
		scale: cfg.Plan.DiskScale(cfg.Node),
		live:  map[int64]*Run{},
	}
	for _, d := range s.dirs {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("spill: %w", err)
		}
	}
	owner := filepath.Join(cfg.Dir, ownerFile)
	f, err := os.OpenFile(owner, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("spill: directory %s is claimed by another store (remove %s if none is running)", cfg.Dir, owner)
		}
		return nil, fmt.Errorf("spill: %w", err)
	}
	f.Close()
	s.owner = owner
	return s, nil
}

// Stats returns the cumulative counters.
func (s *Store) Stats() Stats { return s.stats }

// Run is one on-disk sequence of frames in logical append order. Pairs and
// PayloadBytes account the run against the owner's budget exactly as the
// in-memory list it replaced would (keyval payload bytes, not framed disk
// bytes).
type Run struct {
	id     int64
	pairs  int
	bytes  int
	frames int
	// paths[i] is the copy on storage path i ("" = no copy there).
	paths [2]string
}

// ID returns the run's store-unique id.
func (r *Run) ID() int64 { return r.id }

// Pairs returns the number of KV pairs in the run.
func (r *Run) Pairs() int { return r.pairs }

// PayloadBytes returns the keyval payload bytes of the run.
func (r *Run) PayloadBytes() int { return r.bytes }

// Frames returns the number of frames.
func (r *Run) Frames() int { return r.frames }

func (s *Store) count(d Stats) {
	s.stats.Add(d)
	if s.cfg.Sink != nil {
		s.cfg.Sink(d)
	}
}

// chargeDisk charges n bytes of disk service time, scaled by the slowdisk
// factor; a healthy disk (scale 0) is fully overlapped and free.
func (s *Store) chargeDisk(n int64) {
	if s.scale <= 0 || s.cfg.Charge == nil {
		return
	}
	d := DiskLatency + vtime.Duration(float64(n)/DiskBytesPerSecond*float64(vtime.Second))
	s.cfg.Charge(vtime.Duration(float64(d) * s.scale))
}

// RecordStall accounts one backpressure event: a pinned working set exceeded
// the budget by `over` bytes and the producer waits for the tier to drain.
// On a healthy (fully overlapped) disk the stall costs zero virtual time and
// is visible only in the counters.
func (s *Store) RecordStall(over int64) {
	if over <= 0 {
		return
	}
	s.count(Stats{Stalls: 1, StallBytes: over})
	s.chargeDisk(over)
}

// frameImage wraps one encoded keyval page in the run-file framing.
func frameImage(page []byte) []byte {
	img := make([]byte, 0, frameHeaderSize+len(page)+frameTrailerSize)
	img = binary.LittleEndian.AppendUint32(img, frameMagic)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(page)))
	img = append(img, page...)
	return binary.LittleEndian.AppendUint32(img, crc32.Checksum(page, castagnoli))
}

// WriteRun spills the list's pairs as one new run, carving frames of at most
// FrameBytes of page payload. The list itself is untouched: the caller still
// owns (and usually releases) it. On a typed failure no partial files remain.
func (s *Store) WriteRun(l *keyval.List) (*Run, error) {
	r := &Run{id: s.next}
	s.next++
	// Both paths full: back off and re-probe — space is reclaimed by other
	// tenants over time. Only after the capped retries are exhausted does
	// the run fail with the typed NoSpaceError.
	attempt := 0
	for s.cfg.Plan.SpillENOSPC(s.cfg.Rank, r.id, 0, attempt) && s.cfg.Plan.SpillENOSPC(s.cfg.Rank, r.id, 1, attempt) {
		attempt++
		if attempt >= maxWriteAttempts {
			return nil, &NoSpaceError{Rank: s.cfg.Rank, Run: r.id}
		}
		s.count(Stats{Retries: 1})
		if s.cfg.Charge != nil {
			s.cfg.Charge(writeBackoffBase * vtime.Duration(uint64(1)<<attempt))
		}
	}
	primary := 0
	if s.cfg.Plan.SpillENOSPC(s.cfg.Rank, r.id, 0, attempt) {
		s.count(Stats{Failovers: 1})
		primary = 1
	}
	err := s.writeRunCopies(r, l, primary, attempt)
	if err != nil && primary == 0 && !s.cfg.Plan.SpillENOSPC(s.cfg.Rank, r.id, 1, attempt) {
		// Every copy on the first placement failed (persistently torn
		// frames): re-spill the whole run to the buddy path. The source list
		// is still resident, so this is a pure retry.
		s.count(Stats{Failovers: 1})
		err = s.writeRunCopies(r, l, 1, attempt)
	}
	if err != nil {
		return nil, err
	}
	s.live[r.id] = r
	return r, nil
}

// writeRunCopies writes the run with `primary` as the first target and, when
// the store replicates, a second copy on the opposite path (skipped if that
// path is out of space). It succeeds when at least one complete copy exists.
func (s *Store) writeRunCopies(r *Run, l *keyval.List, primary, attempt int) error {
	r.pairs, r.bytes, r.frames = 0, 0, 0
	r.paths = [2]string{}
	targets := []int{primary}
	if s.cfg.Replicate {
		// The second copy is what lets a rotten frame fail over, so a full
		// buddy path gets the same capped-backoff re-probe as the primary
		// placement before the run is left single-copy.
		b := 1 - primary
		a := attempt
		for s.cfg.Plan.SpillENOSPC(s.cfg.Rank, r.id, b, a) && a-attempt < maxWriteAttempts-1 {
			a++
			s.count(Stats{Retries: 1})
			if s.cfg.Charge != nil {
				s.cfg.Charge(writeBackoffBase * vtime.Duration(uint64(1)<<a))
			}
		}
		if !s.cfg.Plan.SpillENOSPC(s.cfg.Rank, r.id, b, a) {
			targets = append(targets, b)
		} else {
			s.count(Stats{Failovers: 1})
		}
	}
	files := map[int]*os.File{}
	offs := map[int]int64{}
	discard := func() {
		for idx, f := range files {
			if f != nil {
				f.Close()
				os.Remove(r.paths[idx])
			}
			r.paths[idx] = ""
		}
	}
	for _, idx := range targets {
		p := filepath.Join(s.dirs[idx], fmt.Sprintf("run-%06d.spill", r.id))
		f, err := os.Create(p)
		if err != nil {
			discard()
			return fmt.Errorf("spill: %w", err)
		}
		files[idx] = f
		r.paths[idx] = p
	}
	n := l.Len()
	for start := 0; start < n; {
		end, payloadBytes := start, 0
		for end < n {
			sz := l.At(end).Size()
			if end > start && payloadBytes+sz > s.cfg.FrameBytes {
				break
			}
			payloadBytes += sz
			end++
		}
		sub := keyval.NewListSized(end-start, payloadBytes)
		for i := start; i < end; i++ {
			sub.AddKV(l.At(i))
		}
		page := sub.Encode()
		img := frameImage(page)
		sub.Release()
		keyval.Recycle(page)
		s.count(Stats{SpillPages: 1, SpillBytes: int64(len(img))})
		s.chargeDisk(int64(len(img)))
		seq := s.seq
		s.seq++
		alive := 0
		for _, idx := range targets {
			f := files[idx]
			if f == nil {
				continue
			}
			if err := s.writeFrameAt(f, idx, offs[idx], seq, img); err != nil {
				// This copy's disk stays torn past the retry budget: abandon
				// the copy; the run survives on the remaining target.
				s.count(Stats{Failovers: 1})
				f.Close()
				os.Remove(r.paths[idx])
				files[idx] = nil
				r.paths[idx] = ""
				continue
			}
			offs[idx] += int64(len(img))
			alive++
		}
		if alive == 0 {
			discard()
			return &IntegrityError{Rank: s.cfg.Rank, Run: r.id, Frame: r.frames,
				Path: s.dirs[primary], Reason: "torn writes persisted on every path"}
		}
		r.pairs += end - start
		r.bytes += payloadBytes
		r.frames++
		start = end
	}
	for _, f := range files {
		if f != nil {
			f.Close()
		}
	}
	return nil
}

// writeFrameAt persists one frame image at off, with the short-write check
// and capped-backoff retry of the torn-write fault.
func (s *Store) writeFrameAt(f *os.File, pathIdx int, off, seq int64, img []byte) error {
	for attempt := 0; attempt < maxWriteAttempts; attempt++ {
		n := len(img)
		if torn, keep := s.cfg.Plan.SpillTorn(s.cfg.Rank, seq, pathIdx, attempt); torn {
			n = keep % len(img)
		}
		if _, err := f.WriteAt(img[:n], off); err != nil {
			return fmt.Errorf("spill: %w", err)
		}
		if n == len(img) {
			return nil
		}
		// Short write: a real tier sees this in the write(2) return (or an
		// fsync); recover by truncating the torn tail and retrying after a
		// capped backoff.
		s.count(Stats{Retries: 1})
		if err := f.Truncate(off); err != nil {
			return fmt.Errorf("spill: %w", err)
		}
		if s.cfg.Charge != nil {
			s.cfg.Charge(writeBackoffBase * vtime.Duration(uint64(1)<<attempt))
		}
	}
	return fmt.Errorf("spill: frame torn after %d attempts", maxWriteAttempts)
}

// Remove deletes the run's files.
func (s *Store) Remove(r *Run) {
	if r == nil {
		return
	}
	for i, p := range r.paths {
		if p != "" {
			os.Remove(p)
			r.paths[i] = ""
		}
	}
	delete(s.live, r.id)
}

// Close removes every live run and the store's directories (best-effort).
// The claim on Dir is released last, so a store opened on the same Dir
// afterwards never races this one's cleanup.
func (s *Store) Close() {
	for _, r := range s.live {
		for i, p := range r.paths {
			if p != "" {
				os.Remove(p)
				r.paths[i] = ""
			}
		}
	}
	s.live = map[int64]*Run{}
	if s.owner == "" {
		return
	}
	os.RemoveAll(s.dirs[1])
	if ents, err := os.ReadDir(s.dirs[0]); err == nil {
		for _, e := range ents {
			if e.Name() != ownerFile {
				os.RemoveAll(filepath.Join(s.dirs[0], e.Name()))
			}
		}
	}
	os.Remove(s.owner)
	os.Remove(s.dirs[0])
	s.owner = ""
}

// Reader streams one run's frames back as decoded keyval lists.
type Reader struct {
	s     *Store
	run   *Run
	files [2]*os.File
	frame int
	off   int64
}

// OpenRun returns a reader positioned at the run's first frame.
func (s *Store) OpenRun(r *Run) *Reader {
	return &Reader{s: s, run: r}
}

// Close releases the reader's file handles.
func (rd *Reader) Close() {
	for i, f := range rd.files {
		if f != nil {
			f.Close()
			rd.files[i] = nil
		}
	}
}

// Next returns the next frame's pairs, or io.EOF after the last frame. The
// caller must Release the returned list (which also recycles the frame
// buffer). A frame whose first replica fails validation — rot is applied to
// the read bytes, so the file on disk stays intact and replays identically —
// is served from the buddy replica; when every replica is damaged Next
// returns a *IntegrityError.
func (rd *Reader) Next() (*keyval.List, error) {
	if rd.frame >= rd.run.frames {
		return nil, io.EOF
	}
	var firstErr error
	tried := 0
	for rep := 0; rep < 2; rep++ {
		if rd.run.paths[rep] == "" {
			continue
		}
		l, advance, err := rd.readFrameFrom(rep)
		if err != nil {
			rd.s.count(Stats{RotDetected: 1})
			if firstErr == nil {
				firstErr = err
			}
			tried++
			continue
		}
		if tried > 0 {
			rd.s.count(Stats{Failovers: 1})
		}
		rd.s.count(Stats{RestorePages: 1, RestoreBytes: advance})
		rd.s.chargeDisk(advance)
		rd.frame++
		rd.off += advance
		return l, nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("no surviving copy")
	}
	path := rd.run.paths[0]
	if path == "" {
		path = rd.run.paths[1]
	}
	return nil, &IntegrityError{Rank: rd.s.cfg.Rank, Run: rd.run.id, Frame: rd.frame,
		Path: path, Reason: firstErr.Error()}
}

// readFrameFrom reads and validates the current frame from one replica,
// returning the decoded page and the framed length on disk.
func (rd *Reader) readFrameFrom(rep int) (*keyval.List, int64, error) {
	if rd.files[rep] == nil {
		f, err := os.Open(rd.run.paths[rep])
		if err != nil {
			return nil, 0, err
		}
		rd.files[rep] = f
	}
	f := rd.files[rep]
	var hdr [frameHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], rd.off); err != nil {
		return nil, 0, fmt.Errorf("truncated frame header: %v", err)
	}
	if binary.LittleEndian.Uint32(hdr[:]) != frameMagic {
		return nil, 0, fmt.Errorf("bad frame magic")
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[4:]))
	body := make([]byte, plen+frameTrailerSize)
	if _, err := f.ReadAt(body, rd.off+frameHeaderSize); err != nil {
		return nil, 0, fmt.Errorf("truncated frame payload: %v", err)
	}
	payload := body[:plen]
	if rot, bit := rd.s.cfg.Plan.SpillRot(rd.s.cfg.Rank, rd.run.id, rd.frame, rep); rot && plen > 0 {
		b := bit % int(8*plen)
		payload[b/8] ^= 1 << (b % 8)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(body[plen:]) {
		return nil, 0, fmt.Errorf("frame CRC mismatch")
	}
	l, err := keyval.Decode(payload)
	if err != nil {
		return nil, 0, err
	}
	return l, frameHeaderSize + plen + frameTrailerSize, nil
}

// ReadRun streams the run's frames through fn. Each list is valid only
// during the call and is released on return.
func (s *Store) ReadRun(r *Run, fn func(l *keyval.List) error) error {
	rd := s.OpenRun(r)
	defer rd.Close()
	for {
		l, err := rd.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		err = fn(l)
		l.Release()
		if err != nil {
			return err
		}
	}
}

// ScanRun validates and streams every frame of a raw run-file image without
// store metadata — the recovery/inspection path, and the fuzz target: any
// truncation, bit flip, or malformed page surfaces as a typed
// *IntegrityError, never as garbage pairs or a panic. Lists passed to fn are
// owned copies, valid only during the call.
func ScanRun(data []byte, fn func(l *keyval.List) error) error {
	ie := func(frame int, reason string) error {
		return &IntegrityError{Frame: frame, Path: "<scan>", Reason: reason}
	}
	off, frame := 0, 0
	for off < len(data) {
		if len(data)-off < frameHeaderSize+frameTrailerSize {
			return ie(frame, "truncated frame header")
		}
		if binary.LittleEndian.Uint32(data[off:]) != frameMagic {
			return ie(frame, "bad frame magic")
		}
		plen := int(int64(binary.LittleEndian.Uint32(data[off+4:])))
		if plen > len(data)-off-frameHeaderSize-frameTrailerSize {
			return ie(frame, "truncated frame payload")
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+plen]
		want := binary.LittleEndian.Uint32(data[off+frameHeaderSize+plen:])
		if crc32.Checksum(payload, castagnoli) != want {
			return ie(frame, "frame CRC mismatch")
		}
		l, err := keyval.DecodeCopy(payload)
		if err != nil {
			return ie(frame, err.Error())
		}
		err = fn(l)
		l.Release()
		if err != nil {
			return err
		}
		frame++
		off += frameHeaderSize + plen + frameTrailerSize
	}
	return nil
}
