package audit

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// FileStore is the append-only segment backend: a directory of files
//
//	audit-000000000000.seg   (named by the first batch sequence inside)
//	audit-000000000042.seg
//
// each holding length-prefixed batch frames after an 8-byte magic. A
// frame is fully self-contained:
//
//	u32 bodyLen
//	body: u64 batchSeq | u64 flushUnixNano | u64 firstSeq | u64 lastSeq
//	      u32 count | 32B prevRoot | 32B root | count × (u32 len | payload)
//
// (all little-endian). Segments rotate by size and age, every append is
// fsynced, and reopening a directory truncates a torn tail frame (a crash
// mid-write) back to the last complete batch — recovery never loses a
// batch whose Append returned.
type FileStore struct {
	dir      string
	maxBytes int64
	maxAge   time.Duration

	mu        sync.Mutex
	cur       *os.File
	curSize   int64
	curOpened time.Time
	segments  int   // total segment files, including the current one
	bytes     int64 // total bytes across all segments
	resume    resumeState
}

// resumeState is the chain position recovered at open time.
type resumeState struct {
	prevRoot   [HashSize]byte
	nextBatch  uint64
	nextRecord uint64
}

// FileStoreOptions bound segment growth. Zero values select the defaults.
type FileStoreOptions struct {
	// MaxSegmentBytes rotates the current segment once it exceeds this
	// size (default 8 MiB).
	MaxSegmentBytes int64
	// MaxSegmentAge rotates the current segment once it has been open
	// this long (default 1 hour), so quiet servers still produce
	// time-bounded files.
	MaxSegmentAge time.Duration
}

const (
	segMagic        = "EVAUDIT1"
	segPrefix       = "audit-"
	segSuffix       = ".seg"
	frameHeaderSize = 8 + 8 + 8 + 8 + 4 + HashSize + HashSize
	// maxFrameLen rejects absurd frame lengths during recovery — a
	// corrupted length prefix must not read as a multi-gigabyte frame.
	maxFrameLen = 1 << 30

	defaultMaxSegmentBytes = 8 << 20
	defaultMaxSegmentAge   = time.Hour
)

// OpenFileStore opens (or creates) an audit directory and recovers the
// chain position: the last segment's torn tail, if any, is truncated to
// the last complete frame.
func OpenFileStore(dir string, opts FileStoreOptions) (*FileStore, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = defaultMaxSegmentBytes
	}
	if opts.MaxSegmentAge <= 0 {
		opts.MaxSegmentAge = defaultMaxSegmentAge
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &FileStore{dir: dir, maxBytes: opts.MaxSegmentBytes, maxAge: opts.MaxSegmentAge}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		path := filepath.Join(dir, name)
		last := i == len(names)-1
		st, err := recoverSegment(path, last)
		if err != nil {
			return nil, err
		}
		s.bytes += st.goodSize
		s.segments++
		if st.frames > 0 {
			s.resume = resumeState{prevRoot: st.lastRoot, nextBatch: st.lastBatch + 1, nextRecord: st.lastRecord + 1}
		}
		if last {
			// Continue appending to the tail segment unless it is already
			// over the size bound.
			if st.goodSize < s.maxBytes {
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return nil, err
				}
				s.cur, s.curSize, s.curOpened = f, st.goodSize, time.Now()
			}
		}
	}
	return s, nil
}

// Resume implements Resumer.
func (s *FileStore) Resume() (prevRoot [HashSize]byte, nextBatch, nextRecord uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resume.prevRoot, s.resume.nextBatch, s.resume.nextRecord, nil
}

// Append implements Store: rotate if due, write one frame, fsync.
func (s *FileStore) Append(b *Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur != nil && (s.curSize >= s.maxBytes || time.Since(s.curOpened) >= s.maxAge) {
		if err := s.cur.Close(); err != nil {
			return err
		}
		s.cur = nil
	}
	if s.cur == nil {
		path := filepath.Join(s.dir, fmt.Sprintf("%s%012d%s", segPrefix, b.Seq, segSuffix))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte(segMagic)); err != nil {
			f.Close()
			return err
		}
		s.cur, s.curSize, s.curOpened = f, int64(len(segMagic)), time.Now()
		s.segments++
		s.bytes += int64(len(segMagic))
	}
	frame := encodeFrame(b)
	if _, err := s.cur.Write(frame); err != nil {
		return err
	}
	if err := s.cur.Sync(); err != nil {
		return err
	}
	s.curSize += int64(len(frame))
	s.bytes += int64(len(frame))
	s.resume = resumeState{prevRoot: b.Root, nextBatch: b.Seq + 1, nextRecord: b.LastSeq + 1}
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return nil
	}
	err := s.cur.Close()
	s.cur = nil
	return err
}

// FileStoreStatus describes the store for /v1/audit.
type FileStoreStatus struct {
	Dir      string
	Segments int
	Bytes    int64
}

// Status snapshots the store's segment count and total size.
func (s *FileStore) Status() FileStoreStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return FileStoreStatus{Dir: s.dir, Segments: s.segments, Bytes: s.bytes}
}

func encodeFrame(b *Batch) []byte {
	bodyLen := frameHeaderSize
	for _, p := range b.Records {
		bodyLen += 4 + len(p)
	}
	buf := make([]byte, 0, 4+bodyLen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyLen))
	buf = binary.LittleEndian.AppendUint64(buf, b.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.TimeUnixNano))
	buf = binary.LittleEndian.AppendUint64(buf, b.FirstSeq)
	buf = binary.LittleEndian.AppendUint64(buf, b.LastSeq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Records)))
	buf = append(buf, b.PrevRoot[:]...)
	buf = append(buf, b.Root[:]...)
	for _, p := range b.Records {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

func decodeFrameBody(body []byte) (*Batch, error) {
	if len(body) < frameHeaderSize {
		return nil, fmt.Errorf("audit: frame body %d bytes, header needs %d", len(body), frameHeaderSize)
	}
	b := &Batch{
		Seq:          binary.LittleEndian.Uint64(body[0:]),
		TimeUnixNano: int64(binary.LittleEndian.Uint64(body[8:])),
		FirstSeq:     binary.LittleEndian.Uint64(body[16:]),
		LastSeq:      binary.LittleEndian.Uint64(body[24:]),
	}
	count := binary.LittleEndian.Uint32(body[32:])
	copy(b.PrevRoot[:], body[36:36+HashSize])
	copy(b.Root[:], body[36+HashSize:36+2*HashSize])
	off := frameHeaderSize
	b.Records = make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if off+4 > len(body) {
			return nil, fmt.Errorf("audit: frame truncated inside record %d length", i)
		}
		n := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if n > len(body)-off {
			return nil, fmt.Errorf("audit: frame record %d overruns body (%d > %d)", i, n, len(body)-off)
		}
		b.Records = append(b.Records, body[off:off+n])
		off += n
	}
	if off != len(body) {
		return nil, fmt.Errorf("audit: %d trailing bytes in frame", len(body)-off)
	}
	return b, nil
}

// segmentNames lists the directory's segment files in sequence order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), segPrefix) && strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// segmentScan is what recovery learned about one segment.
type segmentScan struct {
	frames     int
	goodSize   int64 // offset past the last complete frame
	lastBatch  uint64
	lastRecord uint64
	lastRoot   [HashSize]byte
}

// recoverSegment scans a segment's frames. A short tail in the last
// segment is a torn write from a crash: the file is truncated back to the
// last complete frame. The same condition in any earlier segment — or a
// frame that parses but is malformed — is corruption and fails the open.
func recoverSegment(path string, last bool) (segmentScan, error) {
	var scan segmentScan
	batches, goodSize, torn, err := readSegment(path)
	if err != nil {
		return scan, err
	}
	if torn && !last {
		return scan, fmt.Errorf("audit: segment %s has a torn frame but is not the tail segment", path)
	}
	if torn {
		if err := os.Truncate(path, goodSize); err != nil {
			return scan, err
		}
	}
	scan.frames = len(batches)
	scan.goodSize = goodSize
	if n := len(batches); n > 0 {
		b := batches[n-1]
		scan.lastBatch, scan.lastRecord, scan.lastRoot = b.Seq, b.LastSeq, b.Root
	}
	return scan, nil
}

// readSegment reads every complete frame of one segment. torn reports a
// trailing incomplete frame; goodSize is the offset just past the last
// complete one. Frames that are present but malformed return an error.
func readSegment(path string) (batches []*Batch, goodSize int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, 0, false, fmt.Errorf("audit: %s: bad segment magic", path)
	}
	off := int64(len(segMagic))
	for {
		if off == int64(len(data)) {
			return batches, off, false, nil
		}
		if int64(len(data))-off < 4 {
			return batches, off, true, nil
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if n > maxFrameLen {
			return nil, 0, false, fmt.Errorf("audit: %s: frame length %d at offset %d exceeds limit", path, n, off)
		}
		if off+4+n > int64(len(data)) {
			return batches, off, true, nil
		}
		b, err := decodeFrameBody(data[off+4 : off+4+n])
		if err != nil {
			return nil, 0, false, fmt.Errorf("audit: %s: offset %d: %w", path, off, err)
		}
		batches = append(batches, b)
		off += 4 + n
	}
}

// ReadDir reads every batch from an audit directory in chain order. A
// torn tail frame in the final segment (a crash mid-write) is skipped;
// any other structural damage is an error. Callers pass the result to
// VerifyChain before trusting or replaying it.
func ReadDir(dir string) ([]*Batch, error) {
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	var all []*Batch
	for i, name := range names {
		batches, _, torn, err := readSegment(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if torn && i != len(names)-1 {
			return nil, fmt.Errorf("audit: segment %s has a torn frame but is not the tail segment", name)
		}
		all = append(all, batches...)
	}
	return all, nil
}

// Interface conformance, checked at compile time.
var (
	_ Store   = (*FileStore)(nil)
	_ Resumer = (*FileStore)(nil)
	_ Store   = (*MemStore)(nil)
)
