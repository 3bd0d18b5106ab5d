package dmtcp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// restartMember is a coordMember that can also restart from an image.
type restartMember struct {
	coordMember
	mu       sync.Mutex
	restored string
	failR    bool
}

func (m *restartMember) Restart(_ context.Context, r io.Reader) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failR {
		return errors.New("restart failed")
	}
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	m.restored = string(b)
	return nil
}

func rankSource(fail int) func(rank int) (io.ReadCloser, error) {
	return func(rank int) (io.ReadCloser, error) {
		if rank == fail {
			return nil, errors.New("image gone")
		}
		return io.NopCloser(strings.NewReader(fmt.Sprintf("img-%d", rank))), nil
	}
}

func TestCoordinatorRestartAll(t *testing.T) {
	c := NewCoordinator()
	members := []*restartMember{{}, {}, {}}
	for i, m := range members {
		c.Add(i, m)
	}
	if err := c.RestartAll(rankSource(-1)); err != nil {
		t.Fatalf("RestartAll: %v", err)
	}
	for i, m := range members {
		if m.restored != fmt.Sprintf("img-%d", i) {
			t.Fatalf("rank %d restored %q", i, m.restored)
		}
	}
}

func TestCoordinatorRestartAllAttemptsEveryRank(t *testing.T) {
	c := NewCoordinator()
	ok := &restartMember{}
	bad := &restartMember{failR: true}
	c.Add(0, ok)
	c.Add(1, bad)
	err := c.RestartAll(rankSource(-1))
	if err == nil {
		t.Fatal("RestartAll succeeded despite a failing rank")
	}
	if ok.restored != "img-0" {
		t.Fatalf("healthy rank not restarted (restored %q): one failure must not starve the others", ok.restored)
	}
}

func TestCoordinatorRestartAllSourceError(t *testing.T) {
	c := NewCoordinator()
	members := []*restartMember{{}, {}}
	for i, m := range members {
		c.Add(i, m)
	}
	if err := c.RestartAll(rankSource(1)); err == nil {
		t.Fatal("RestartAll succeeded with a missing image")
	}
	if members[0].restored != "img-0" {
		t.Fatal("rank 0 not restarted after rank 1's source failed")
	}
}

func TestCoordinatorRestartAllRejectsNonRestarter(t *testing.T) {
	c := NewCoordinator()
	c.Add(0, &coordMember{}) // Member but not Restarter
	c.Add(1, &restartMember{})
	err := c.RestartAll(rankSource(-1))
	if err == nil {
		t.Fatal("RestartAll accepted a member that cannot restart")
	}
}
