package crac

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

var errEIO = errors.New("input/output error")

// failingStore is a MemStore whose reads of one name fail: at open
// ("open"), or after the first few bytes of the header ("read").
type failingStore struct {
	*MemStore
	name, mode string
}

func (f failingStore) Get(ctx context.Context, name string) (io.ReadCloser, error) {
	ra, size, err := f.GetAt(ctx, name)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(io.NewSectionReader(ra, 0, size)), nil
}

func (f failingStore) GetAt(ctx context.Context, name string) (ReaderAtCloser, int64, error) {
	if name == f.name && f.mode == "open" {
		return nil, 0, errEIO
	}
	ra, size, err := f.MemStore.GetAt(ctx, name)
	if err != nil || name != f.name {
		return ra, size, err
	}
	return cutReaderAt{ra}, size, nil
}

// cutReaderAt serves the first 10 bytes and fails every read past them.
type cutReaderAt struct{ ReaderAtCloser }

func (c cutReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) <= 10 {
		return c.ReaderAtCloser.ReadAt(p, off)
	}
	n, _ := c.ReaderAtCloser.ReadAt(p[:max(0, 10-off)], off)
	return n, errEIO
}

// TestCondemnationRule runs the one rule for both of its callers. A
// live entry h1 sits beside the images a pass may delete: bytes that
// are no image reach nothing, so the candidates go; a delta whose
// header cannot be read might name any of them, so nothing goes.
func TestCondemnationRule(t *testing.T) {
	ctx := context.Background()
	for _, row := range []struct {
		name, mode string // mode "": h1 holds bytes that are no image
		condemns   bool
	}{
		{"not-an-image", "", true},
		{"open-fails", "open", false},
		{"read-fails-mid-header", "read", false},
	} {
		// build stores the chain h0 <- h1 (h1 replaced by junk when the
		// row says so) behind a store whose reads of h1 fail per row.
		build := func(t *testing.T) failingStore {
			store := failingStore{MemStore: NewMemStore(), name: "h1", mode: row.mode}
			s, d := newChainSession(t)
			buildChain(t, s, d, store.MemStore, "h0", "h1")
			if row.mode == "" {
				conformPut(t, store.MemStore, "h1", []byte("not an image"))
			}
			return store
		}

		// Retention's shape: the just-written image and the Keep newest
		// are the seeds, the older images the candidates.
		t.Run(row.name+"/retention", func(t *testing.T) {
			store := build(t)
			conformPut(t, store.MemStore, "old0", conformGet(t, store.MemStore, "h0"))
			conformPut(t, store.MemStore, "new", conformGet(t, store.MemStore, "h0"))
			deleted, kept := condemn(storeLineage(ctx, store), []string{"new", "h1"}, []string{"h0", "old0"},
				func(n string) error { return store.Delete(ctx, n) })
			want := []string{"h0", "old0"}
			if !row.condemns {
				want = nil
			}
			if !reflect.DeepEqual(deleted, want) {
				t.Fatalf("deleted %v (kept %v), want %v", deleted, kept, want)
			}
			for _, n := range []string{"new", "h1"} {
				if _, err := store.MemStore.Get(ctx, n); err != nil {
					t.Fatalf("seed %s gone: %v", n, err)
				}
			}
		})

		t.Run(row.name+"/compact", func(t *testing.T) {
			store := build(t)
			s, d := newChainSession(t)
			buildChain(t, s, d, store, "g0", "g1", "g2")
			st, err := Compact(ctx, store, "g2")
			if err != nil {
				t.Fatal(err)
			}
			squashed := []string{"g1", "g0"}
			wantDeleted, wantRetained := squashed, []string(nil)
			if !row.condemns {
				wantDeleted, wantRetained = nil, squashed
			}
			if !reflect.DeepEqual(st.Deleted, wantDeleted) || !reflect.DeepEqual(st.Retained, wantRetained) {
				t.Fatalf("Compact deleted %v and retained %v, want %v and %v",
					st.Deleted, st.Retained, wantDeleted, wantRetained)
			}
			names, err := store.List(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(names, "h1") || !slices.Contains(names, "h0") {
				t.Fatalf("store after Compact = %v, want h0 and h1 kept", names)
			}
		})
	}
}

// TestDirStoreRetentionNonImage: a file among the Keep newest that is
// no image keeps only itself — the older images still go.
func TestDirStoreRetentionNonImage(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir, 2, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("old%d", i)
		if _, err := s.CheckpointTo(ctx, store, name); err != nil {
			t.Fatal(err)
		}
		at := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, name+imageExt), at, at); err != nil {
			t.Fatal(err)
		}
	}
	storePutBytes(t, store, "junk", []byte("not an image"))
	if _, err := s.CheckpointTo(ctx, store, "new"); err != nil {
		t.Fatal(err)
	}
	names, err := store.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"junk", "new"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("List after retention = %v, want %v", names, want)
	}
}
