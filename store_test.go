package crac

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func storePutBytes(t *testing.T, s Store, name string, b []byte) {
	t.Helper()
	if err := s.Put(context.Background(), name, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}); err != nil {
		t.Fatalf("Put(%s): %v", name, err)
	}
}

func storeGetBytes(t *testing.T, s Store, name string) []byte {
	t.Helper()
	rc, err := s.Get(context.Background(), name)
	if err != nil {
		t.Fatalf("Get(%s): %v", name, err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return b
}

// testEveryStore runs the same contract checks over all three built-in
// stores.
func testEveryStore(t *testing.T, mk func(t *testing.T) Store) {
	ctx := context.Background()
	t.Run("roundtrip", func(t *testing.T) {
		s := mk(t)
		storePutBytes(t, s, "gen1", []byte("image-one"))
		if got := storeGetBytes(t, s, "gen1"); string(got) != "image-one" {
			t.Fatalf("roundtrip = %q", got)
		}
	})
	t.Run("overwrite", func(t *testing.T) {
		s := mk(t)
		storePutBytes(t, s, "gen1", []byte("old"))
		storePutBytes(t, s, "gen1", []byte("new"))
		if got := storeGetBytes(t, s, "gen1"); string(got) != "new" {
			t.Fatalf("after overwrite = %q", got)
		}
	})
	t.Run("missing", func(t *testing.T) {
		s := mk(t)
		if _, err := s.Get(ctx, "nope"); !errors.Is(err, ErrImageNotFound) {
			t.Fatalf("Get missing = %v, want ErrImageNotFound", err)
		}
		if err := s.Delete(ctx, "nope"); !errors.Is(err, ErrImageNotFound) {
			t.Fatalf("Delete missing = %v, want ErrImageNotFound", err)
		}
	})
	t.Run("atomic-put-failure", func(t *testing.T) {
		s := mk(t)
		boom := errors.New("boom")
		err := s.Put(ctx, "gen1", func(w io.Writer) error {
			w.Write([]byte("partial bytes that must never become visible"))
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Put error = %v, want boom", err)
		}
		if _, err := s.Get(ctx, "gen1"); !errors.Is(err, ErrImageNotFound) {
			t.Fatalf("failed Put left an image behind: Get = %v", err)
		}
		names, err := s.List(ctx)
		if err != nil || len(names) != 0 {
			t.Fatalf("List after failed Put = %v, %v", names, err)
		}
	})
	t.Run("cancelled-ctx", func(t *testing.T) {
		s := mk(t)
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		if err := s.Put(cctx, "gen1", func(io.Writer) error { return nil }); !errors.Is(err, context.Canceled) {
			t.Fatalf("Put with cancelled ctx = %v", err)
		}
	})
	t.Run("delete", func(t *testing.T) {
		s := mk(t)
		storePutBytes(t, s, "gen1", []byte("x"))
		if err := s.Delete(ctx, "gen1"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := s.Get(ctx, "gen1"); !errors.Is(err, ErrImageNotFound) {
			t.Fatalf("Get after Delete = %v", err)
		}
	})
}

func TestMemStoreContract(t *testing.T) {
	testEveryStore(t, func(t *testing.T) Store { return NewMemStore() })
}

func TestDirStoreContract(t *testing.T) {
	testEveryStore(t, func(t *testing.T) Store {
		s, err := NewDirStore(filepath.Join(t.TempDir(), "imgs"), 0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// TestFileStoreRoundTrip: a checkpoint to one file is a DirStore image
// under a fixed name — "ckpt" is the file dir/ckpt.img.
func TestFileStoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := fileSlot(t, dir)
	storePutBytes(t, s, "ckpt", []byte("image"))
	if got, err := os.ReadFile(filepath.Join(dir, "ckpt.img")); err != nil || string(got) != "image" {
		t.Fatalf("file = %q, %v", got, err)
	}
	if got := storeGetBytes(t, s, "ckpt"); string(got) != "image" {
		t.Fatalf("roundtrip = %q", got)
	}
	names, err := s.List(ctx)
	if err != nil || len(names) != 1 || names[0] != "ckpt" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := s.Delete(ctx, "ckpt"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get(ctx, "ckpt"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("Get after Delete = %v", err)
	}
}

func TestFileStoreAtomicFailure(t *testing.T) {
	dir := t.TempDir()
	s := fileSlot(t, dir)
	storePutBytes(t, s, "ckpt", []byte("good image"))
	boom := errors.New("boom")
	err := s.Put(context.Background(), "ckpt", func(w io.Writer) error {
		w.Write([]byte("half an image"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Put = %v", err)
	}
	// The previous image survives untouched, and no temp files linger.
	if got := storeGetBytes(t, s, "ckpt"); string(got) != "good image" {
		t.Fatalf("failed Put clobbered the image: %q", got)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != "ckpt.img" {
			t.Fatalf("leftover file %q after failed Put", e.Name())
		}
	}
}

func TestDirStoreRetention(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := NewDirStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		storePutBytes(t, s, fmt.Sprintf("gen%03d", i), []byte{byte(i)})
		// Distinct mtimes so retention order is unambiguous on coarse
		// filesystem clocks.
		tm := time.Now().Add(time.Duration(i-6) * time.Second)
		os.Chtimes(filepath.Join(dir, fmt.Sprintf("gen%03d.img", i)), tm, tm)
	}
	names, err := s.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"gen003", "gen004", "gen005"}
	if len(names) != len(want) {
		t.Fatalf("List after retention = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List after retention = %v, want %v", names, want)
		}
	}
}

// TestDirStoreMemoForgetsDeletedImages: retention memoizes each image's
// lineage node, and must forget the images it deletes. 300 checkpoints
// into a store keeping 2 leave at most Keep+1 memo entries: the images
// the last pass listed.
func TestDirStoreMemoForgetsDeletedImages(t *testing.T) {
	ctx := context.Background()
	store, err := NewDirStore(t.TempDir(), 2, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 300; i++ {
		if _, err := s.CheckpointTo(ctx, store, fmt.Sprintf("gen%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	store.pruneMu.Lock()
	n := len(store.nodes)
	store.pruneMu.Unlock()
	if n > store.Keep+1 {
		t.Fatalf("after 300 checkpoints the retention memo holds %d entries, want at most %d", n, store.Keep+1)
	}
}

// TestDirStoreChunkPutSkipsRetention: a content-addressed chunk is not
// an image, so writing one neither counts toward Keep nor triggers a
// retention pass (a directory listing per chunk); the image Put that
// follows prunes as ever.
func TestDirStoreChunkPutSkipsRetention(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		storePutBytes(t, s, fmt.Sprintf("gen%03d", i), []byte{byte(i)})
		tm := time.Now().Add(time.Duration(i-4) * time.Second)
		os.Chtimes(filepath.Join(dir, fmt.Sprintf("gen%03d.img", i)), tm, tm)
	}
	// Retention switched on with images already over the limit: only a
	// retention pass can remove them.
	s.Keep = 1
	chunk := "cas-" + strings.Repeat("ab", 32)
	storePutBytes(t, s, chunk, []byte("chunk"))
	if names, _ := s.List(ctx); len(names) != 4 {
		t.Fatalf("List after a chunk Put = %v, want the three images and the chunk", names)
	}
	storePutBytes(t, s, "gen003", []byte{3})
	names, err := s.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != chunk || names[1] != "gen003" {
		t.Fatalf("List after the image Put = %v, want [%s gen003]", names, chunk)
	}
}

func TestDirStoreRejectsHostileNames(t *testing.T) {
	s, err := NewDirStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", ".", "..", "a/b", `a\b`, ".hidden", "../escape"} {
		if err := s.Put(context.Background(), name, func(io.Writer) error { return nil }); err == nil {
			t.Fatalf("Put(%q) accepted a hostile name", name)
		} else if !strings.Contains(err.Error(), "invalid image name") {
			t.Fatalf("Put(%q) = %v, want invalid-name error", name, err)
		}
	}
}

func TestDirStoreListSorted(t *testing.T) {
	s, err := NewDirStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"zeta", "alpha", "mid"} {
		storePutBytes(t, s, n, []byte(n))
	}
	names, err := s.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "alpha" || names[1] != "mid" || names[2] != "zeta" {
		t.Fatalf("List = %v, want sorted", names)
	}
}

// TestDirStoreQuarantineDead pins that images Scrub moved aside are
// dead to the store: List hides them (so chain resolution and a
// re-scrub never consider them live), retention neither counts them
// toward Keep nor removes them, and their bytes stay fetchable by
// exact name for forensics.
func TestDirStoreQuarantineDead(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := NewDirStore(dir, 2, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	storePutBytes(t, s, "bad~quarantined", []byte("forensics"))
	// Oldest mtime: a live image this stale would be pruned first.
	old := time.Now().Add(-time.Hour)
	os.Chtimes(filepath.Join(dir, "bad~quarantined.img"), old, old)
	for i := 0; i < 3; i++ {
		storePutBytes(t, s, fmt.Sprintf("gen%d", i), []byte{byte(i)})
		tm := time.Now().Add(time.Duration(i-3) * time.Second)
		os.Chtimes(filepath.Join(dir, fmt.Sprintf("gen%d.img", i)), tm, tm)
	}
	storePutBytes(t, s, "gen3", []byte{3})

	names, err := s.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if Quarantined(n) {
			t.Fatalf("List = %v: quarantined image listed as live", names)
		}
	}
	// Keep=2 retains the two newest live images; the quarantined file
	// neither displaced a live slot nor got pruned itself.
	if len(names) != 2 || names[0] != "gen2" || names[1] != "gen3" {
		t.Fatalf("List = %v, want [gen2 gen3]", names)
	}
	rc, err := s.Get(ctx, "bad~quarantined")
	if err != nil {
		t.Fatalf("quarantined bytes pruned: %v", err)
	}
	rc.Close()
}

// TestDirStoreChainAwareRetention pins that Keep never orphans an
// incremental chain: ancestors of retained delta images survive
// retention even when they fall outside the Keep-newest window, and a
// later chain rotation lets the old chain age out as a unit.
func TestDirStoreChainAwareRetention(t *testing.T) {
	store, err := NewDirStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	ctx := context.Background()

	for i := 0; i < 4; i++ {
		w.step(t, i)
		if _, err := s.CheckpointTo(ctx, store, fmt.Sprintf("gen%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Keep=2 would naively retain only gen2/gen3 — but gen3 is a delta
	// whose lineage runs gen3→gen2→gen1→gen0, so the whole chain must
	// survive.
	names, err := store.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Fatalf("chain ancestors pruned: %v", names)
	}
	restored, err := RestoreFrom(ctx, store, "gen3")
	if err != nil {
		t.Fatalf("chain tip must stay restorable after retention: %v", err)
	}
	restored.Close()

	// A restart breaks the chain: the next checkpoints form a fresh
	// base+delta pair, and the old chain — no longer an ancestor of
	// anything retained — ages out entirely.
	if err := s.RestartFrom(ctx, store, "gen3"); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 6; i++ {
		if _, err := s.CheckpointTo(ctx, store, fmt.Sprintf("gen%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	names, err = store.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"gen4", "gen5"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("old chain not pruned after rotation: %v", names)
	}
}

// TestDirStoreRetentionQuarantinedAncestor pins the edge where Scrub
// quarantines a mid-chain ancestor between two retention passes: the
// parent walk crosses the hole without crashing or looping, surviving
// descendants stay retained, the quarantined file itself is never
// pruned, and content-addressed chunk payloads sharing the directory
// are invisible to retention.
func TestDirStoreRetentionQuarantinedAncestor(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store, err := NewDirStore(dir, 2, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(WithIncremental(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newIncrWorkload(t, s.Runtime())
	for i := 0; i < 4; i++ {
		w.step(t, i)
		if _, err := s.CheckpointTo(ctx, store, fmt.Sprintf("gen%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// A chunk payload in the same directory, as a CASStore layered over
	// this DirStore would leave. Ancient mtime: naive retention would
	// evict it first.
	chunkName := "cas-" + strings.Repeat("ab", 32)
	storePutBytes(t, store, chunkName, []byte("chunk payload"))
	old := time.Now().Add(-24 * time.Hour)
	os.Chtimes(filepath.Join(dir, chunkName+".img"), old, old)

	// Scrub quarantines gen1 mid-chain (rename, exactly what Scrub's
	// move-aside leaves behind): gen2 and gen3 now have a hole in their
	// recorded ancestry.
	if err := os.Rename(
		filepath.Join(dir, "gen1.img"),
		filepath.Join(dir, "gen1~quarantined.img"),
	); err != nil {
		t.Fatal(err)
	}

	// The next Put triggers retention. Keep=2 retains gen4+gen3; the
	// closure walks gen3→gen2→gen1: gen1 is quarantined (unreadable by
	// its live name), so the walk stops there — without error, without
	// touching the quarantined file, and without dropping gen2.
	w.step(t, 4)
	if _, err := s.CheckpointTo(ctx, store, "gen4"); err != nil {
		t.Fatal(err)
	}
	names, err := store.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var live []string
	for _, n := range names {
		if !strings.HasPrefix(n, "cas-") {
			live = append(live, n)
		}
	}
	if got := strings.Join(live, ","); got != "gen2,gen3,gen4" {
		t.Fatalf("List after quarantined-ancestor prune = %v, want [gen2 gen3 gen4]", names)
	}
	// The quarantined forensic copy survives, fetchable by exact name.
	rc, err := store.Get(ctx, "gen1~quarantined")
	if err != nil {
		t.Fatalf("quarantined ancestor pruned: %v", err)
	}
	rc.Close()
	// The chunk payload survives too: only the CAS layer's GC may
	// remove chunks, no matter how old they look.
	if got := storeGetBytes(t, store, chunkName); string(got) != "chunk payload" {
		t.Fatalf("chunk entry damaged by retention: %q", got)
	}
}
