package crac

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// fileSlot is the one-file store shape: a durable DirStore over dir,
// whose image under name "img" is the file dir/img.img.
func fileSlot(t *testing.T, dir string) *DirStore {
	t.Helper()
	fs, err := NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFileStorePanicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	fs := fileSlot(t, dir)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in write callback did not propagate")
			}
		}()
		_ = fs.Put(context.Background(), "img", func(w io.Writer) error {
			_, _ = w.Write([]byte("partial"))
			panic("writer died")
		})
	}()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover file after panic: %s", e.Name())
	}
}

func TestFileStoreFailedWriteLeavesOldImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img.img")
	fs := fileSlot(t, dir)
	ctx := context.Background()
	if err := fs.Put(ctx, "img", func(w io.Writer) error {
		_, err := w.Write([]byte("good"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("pipeline died")
	if err := fs.Put(ctx, "img", func(w io.Writer) error {
		_, _ = w.Write([]byte("BAD"))
		return wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("Put = %v, want the write error", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "good" {
		t.Fatalf("image = %q, want the previous committed bytes", b)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want just the image", len(entries))
	}
}

func TestMemStorePutAllOrNothing(t *testing.T) {
	s := NewMemStore()
	ctx := context.Background()
	wantErr := errors.New("mid-write failure")
	if err := s.Put(ctx, "img", func(w io.Writer) error {
		_, _ = w.Write([]byte("partial bytes"))
		return wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("Put = %v, want the write error", err)
	}
	if _, err := s.Get(ctx, "img"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("Get after failed Put = %v, want ErrImageNotFound (no partial image)", err)
	}
}

func TestMemStorePutCancelledContextNotPublished(t *testing.T) {
	s := NewMemStore()
	ctx, cancel := context.WithCancel(context.Background())
	err := s.Put(ctx, "img", func(w io.Writer) error {
		_, werr := w.Write([]byte("bytes"))
		cancel() // the context dies between the write and the publish
		return werr
	})
	if err == nil {
		t.Fatal("Put succeeded with a context cancelled mid-commit")
	}
	if _, gerr := s.Get(context.Background(), "img"); !errors.Is(gerr, ErrImageNotFound) {
		t.Fatalf("Get = %v, want ErrImageNotFound (cancelled Put must not publish)", gerr)
	}
}

func TestDirStorePruneKeepsDurableChain(t *testing.T) {
	for _, sync := range []bool{false, true} {
		name := "nosync"
		var opts []StoreOption
		if !sync {
			opts = append(opts, WithNoSync())
		} else {
			name = "sync"
		}
		t.Run(name, func(t *testing.T) {
			ds, err := NewDirStore(t.TempDir(), 2, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, n := range []string{"a", "b", "c", "d"} {
				if err := ds.Put(ctx, n, func(w io.Writer) error {
					_, werr := w.Write([]byte(n))
					return werr
				}); err != nil {
					t.Fatal(err)
				}
			}
			names, err := ds.List(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 2 {
				t.Fatalf("List = %v, want the newest 2 kept", names)
			}
			for _, n := range names {
				if n != "c" && n != "d" {
					t.Fatalf("List = %v, want {c, d}", names)
				}
			}
		})
	}
}

func TestWithNoSyncPlumbing(t *testing.T) {
	ds, err := NewDirStore(t.TempDir(), 0, WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	if !ds.NoSync {
		t.Fatal("NewDirStore(WithNoSync) did not set NoSync")
	}
	ds2, err := NewDirStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.NoSync {
		t.Fatal("NewDirStore defaults to NoSync")
	}
}

func TestValidateImageNameAllowsQuarantineSuffix(t *testing.T) {
	s := NewMemStore()
	ctx := context.Background()
	if err := s.Put(ctx, "img~quarantined", func(w io.Writer) error {
		_, err := w.Write([]byte("x"))
		return err
	}); err != nil {
		t.Fatalf("quarantine name rejected: %v", err)
	}
	ds, err := NewDirStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put(ctx, "img~quarantined", func(w io.Writer) error {
		_, err := w.Write([]byte("x"))
		return err
	}); err != nil {
		t.Fatalf("DirStore rejected quarantine name: %v", err)
	}
}
