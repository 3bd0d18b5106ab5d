package dmtcp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"

	"repro/internal/addrspace"
)

// testPlugin records hook invocations and contributes one section.
type testPlugin struct {
	name    string
	pre     int
	resume  int
	restart int
	failPre bool
	got     []byte
}

func (p *testPlugin) Name() string { return p.name }
func (p *testPlugin) Freeze(uint64, uint64, bool) (EmitFunc, uint64, error) {
	p.pre++
	if p.failPre {
		return nil, 0, errors.New("boom")
	}
	return func(_ context.Context, _ addrspace.View, s *SectionMap) error {
		s.Add(p.name+".data", []byte("payload-"+p.name))
		return nil
	}, 0, nil
}
func (p *testPlugin) Resume() error { p.resume++; return nil }
func (p *testPlugin) LazyRestart(_ context.Context, r *LazyRestorer) error {
	p.restart++
	var err error
	p.got, err = r.SectionBytes(p.name + ".data")
	return err
}

func buildSpace(t *testing.T) (*addrspace.Space, uint64) {
	t.Helper()
	s := addrspace.New()
	// Lower-half region that must NOT be checkpointed.
	if _, err := s.MMap(0, addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfLower, "lower-secret"); err != nil {
		t.Fatal(err)
	}
	up, err := s.MMap(0, 2*addrspace.PageSize, addrspace.ProtRW, 0, addrspace.HalfUpper, "upper-data")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(up, bytes.Repeat([]byte{0xCD}, 2*addrspace.PageSize)); err != nil {
		t.Fatal(err)
	}
	return s, up
}

func TestCheckpointImageRoundTrip(t *testing.T) {
	space, up := buildSpace(t)
	e := NewEngine()
	p := &testPlugin{name: "crac"}
	e.Register(p)

	var img bytes.Buffer
	st, err := e.Checkpoint(context.Background(), &img, space)
	if err != nil {
		t.Fatal(err)
	}
	if p.pre != 1 || p.resume != 1 {
		t.Fatalf("hook counts: pre=%d resume=%d", p.pre, p.resume)
	}
	if st.Regions != 1 || st.RegionBytes != 2*addrspace.PageSize {
		t.Fatalf("stats = %+v", st)
	}

	parsed, err := ReadImage(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Regions) != 1 || parsed.Regions[0].Start != up {
		t.Fatalf("regions = %+v", parsed.Regions)
	}
	if parsed.Regions[0].Label != "upper-data" {
		t.Fatalf("label = %q", parsed.Regions[0].Label)
	}
	// Lower-half bytes are absent from the image (invariant 4).
	if bytes.Contains(img.Bytes(), []byte("lower-secret")) {
		t.Fatal("image contains a lower-half region label")
	}
	if got, _ := parsed.SectionBytes("crac.data"); string(got) != "payload-crac" {
		t.Fatalf("section = %q", got)
	}

	// Restore into a fresh space.
	fresh := addrspace.New()
	if err := restoreImage(e, img.Bytes(), fresh, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*addrspace.PageSize)
	if err := fresh.ReadAt(up, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xCD}, 2*addrspace.PageSize)) {
		t.Fatal("restored bytes differ")
	}
	if p.restart != 1 || string(p.got) != "payload-crac" {
		t.Fatalf("restart hook: %d %q", p.restart, p.got)
	}
}

// TestCheckpointGzip: gzip is a retired shard encoding. A checkpoint
// stores every shard raw (stored length == raw length, so even
// compressible bytes take their full size), and an image that sets the
// retired gzip bit is refused by every parser.
func TestCheckpointGzip(t *testing.T) {
	space, _ := buildSpace(t)
	e := NewEngine()
	var img bytes.Buffer
	if _, err := e.Checkpoint(context.Background(), &img, space); err != nil {
		t.Fatal(err)
	}
	if img.Len() < 2*addrspace.PageSize {
		t.Fatalf("image %d bytes, smaller than its %d raw region bytes", img.Len(), 2*addrspace.PageSize)
	}
	parsed, err := ReadImage(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Regions) != 1 || parsed.Regions[0].Len != 2*addrspace.PageSize {
		t.Fatalf("parsed = %+v", parsed)
	}
	wantRefused(t, gzipFlagged(img.Bytes()))
}

func TestPluginPreCheckpointFailureAborts(t *testing.T) {
	space, _ := buildSpace(t)
	e := NewEngine()
	e.Register(&testPlugin{name: "bad", failPre: true})
	var img bytes.Buffer
	if _, err := e.Checkpoint(context.Background(), &img, space); err == nil {
		t.Fatal("checkpoint succeeded despite plugin failure")
	}
}

func TestReadImageRejectsGarbage(t *testing.T) {
	if _, err := ReadImage(bytes.NewReader([]byte("NOTANIMG0123456789"))); !errors.Is(err, ErrBadImage) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ReadImage(bytes.NewReader(nil)); !errors.Is(err, ErrBadImage) {
		t.Fatalf("empty err = %v", err)
	}
}

func TestReadImageTruncated(t *testing.T) {
	space, _ := buildSpace(t)
	e := NewEngine()
	var img bytes.Buffer
	if _, err := e.Checkpoint(context.Background(), &img, space); err != nil {
		t.Fatal(err)
	}
	b := img.Bytes()
	if _, err := ReadImage(bytes.NewReader(b[:len(b)/2])); !errors.Is(err, ErrBadImage) {
		t.Fatalf("truncated err = %v", err)
	}
}

func TestRestoreCollisionFails(t *testing.T) {
	space, _ := buildSpace(t)
	e := NewEngine()
	var img bytes.Buffer
	if _, err := e.Checkpoint(context.Background(), &img, space); err != nil {
		t.Fatal(err)
	}
	// Restoring over a space that already has the address mapped fails
	// (MAP_FIXED_NOREPLACE semantics protect against corruption).
	if err := restoreImage(nil, img.Bytes(), space, 0); err == nil {
		t.Fatal("restore over occupied space succeeded")
	}
}

func TestSectionMapOrder(t *testing.T) {
	s := NewSectionMap()
	s.Add("b", []byte{1})
	s.Add("a", []byte{2})
	s.Add("b", []byte{3}) // replace keeps position
	if names := s.Names(); names[0] != "b" || names[1] != "a" || len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
	if v, err := s.Bytes("b"); err != nil || v[0] != 3 {
		t.Fatalf("get b = %v %v", v, err)
	}
	if _, err := s.Bytes("zzz"); err == nil {
		t.Fatal("missing section found")
	}
}

// coordMember implements Member for coordinator tests.
type coordMember struct {
	mu       sync.Mutex
	quiesced bool
	wrote    bool
	resumed  bool
	failQ    bool
}

func (m *coordMember) Quiesce() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failQ {
		return errors.New("quiesce failed")
	}
	m.quiesced = true
	return nil
}
func (m *coordMember) WriteCheckpoint(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.quiesced {
		return errors.New("write before quiesce barrier")
	}
	m.wrote = true
	_, err := w.Write([]byte("img"))
	return err
}
func (m *coordMember) Resume() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.wrote {
		return errors.New("resume before write")
	}
	m.resumed = true
	return nil
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func TestCoordinatorPhases(t *testing.T) {
	c := NewCoordinator()
	members := []*coordMember{{}, {}, {}}
	for i, m := range members {
		c.Add(i, m)
	}
	if got := c.Ranks(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("ranks = %v", got)
	}
	var bufs [3]bytes.Buffer
	err := c.CheckpointAll(func(rank int) (io.WriteCloser, error) {
		return nopCloser{&bufs[rank]}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if !m.quiesced || !m.wrote || !m.resumed {
			t.Fatalf("member %d: %+v", i, m)
		}
		if bufs[i].String() != "img" {
			t.Fatalf("rank %d image = %q", i, bufs[i].String())
		}
	}
}

func TestCoordinatorQuiesceFailureAborts(t *testing.T) {
	c := NewCoordinator()
	c.Add(0, &coordMember{})
	c.Add(1, &coordMember{failQ: true})
	err := c.CheckpointAll(func(int) (io.WriteCloser, error) {
		return nopCloser{io.Discard}, nil
	})
	if err == nil {
		t.Fatal("coordinated checkpoint succeeded despite quiesce failure")
	}
}

func TestCoordinatorRemove(t *testing.T) {
	c := NewCoordinator()
	c.Add(7, &coordMember{})
	c.Remove(7)
	if len(c.Ranks()) != 0 {
		t.Fatal("remove failed")
	}
}

func TestWriteStringTooLong(t *testing.T) {
	if _, err := appendString(nil, string(make([]byte, 70000))); err == nil {
		t.Fatal("overlong string accepted")
	}
}
