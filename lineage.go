package crac

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/cas"
	"repro/internal/dmtcp"
)

// lineageNode is one stored image as the lineage graph sees it: its
// header's parent link and identities, or why it has none: no image
// there (notAnImage), or a read that failed.
type lineageNode struct {
	parent   string // "" for a base
	id       uint64 // 0: none (a standalone image) or unknown (a manifest read raw)
	parentID uint64 // 0: binds to whatever the parent name holds
	err      error
}

// lineageGraph is the parent graph of one store's images. With read
// set, each node is read on first use (quarantined names never are);
// without, the graph holds just the nodes it was built with.
type lineageGraph struct {
	nodes map[string]*lineageNode
	read  func(name string) (*lineageNode, error)
}

// storeLineage is store's graph read from headers only.
func storeLineage(ctx context.Context, store Store) *lineageGraph {
	return &lineageGraph{nodes: map[string]*lineageNode{}, read: func(name string) (*lineageNode, error) {
		return readNode(ctx, store, name)
	}}
}

// verifiedLineage is store's graph read in full: a node is an image
// whose content verified — read once and indexed in place, its trailer
// and every shard checked (ShardIndex.Verify), no image assembled — or
// the error that says why it did not.
func verifiedLineage(ctx context.Context, store Store) *lineageGraph {
	return &lineageGraph{nodes: map[string]*lineageNode{}, read: func(name string) (*lineageNode, error) {
		src, size, err := store.GetAt(ctx, name)
		if err != nil {
			return nil, wrapCancelled(err)
		}
		ix, err := dmtcp.OpenShardIndexWhole(src, size, size)
		src.Close()
		if err == nil {
			err = ix.Verify()
		}
		if err != nil {
			return nil, wrapCancelled(fmt.Errorf("image %q: %w", name, err))
		}
		return &lineageNode{parent: ix.Parent, id: ix.ID, parentID: ix.ParentID}, nil
	}}
}

func (g *lineageGraph) node(name string) *lineageNode {
	if n, ok := g.nodes[name]; ok {
		return n
	}
	n := &lineageNode{err: fmt.Errorf("%w: %q", ErrImageNotFound, name)}
	if g.read != nil && !Quarantined(name) {
		if rn, err := g.read(name); err != nil {
			n.err = err
		} else {
			n = rn
		}
	}
	g.nodes[name] = n
	return n
}

// ancestors walks name's parent links newest first: the ancestors it
// reached, and the first break — a member that cannot be read, a cycle,
// a walk past dmtcp.MaxChainDepth, or an identity mismatch under the one
// rule: a child binds iff parentID == 0 || parentID == parent.id. A
// mismatched parent is still followed by name (what a child names is
// what retention and compaction keep); any other break ends the walk.
func (g *lineageGraph) ancestors(name string) ([]string, error) {
	n := g.node(name)
	if n.err != nil {
		return nil, n.err
	}
	var out []string
	var broken error
	walk := dmtcp.ChainWalk{name: true}
	for n.parent != "" {
		if err := walk.Step(n.parent); err != nil {
			return out, cmp.Or(broken, err)
		}
		p := g.node(n.parent)
		out = append(out, n.parent)
		if p.err != nil {
			return out, cmp.Or(broken, fmt.Errorf("%w: parent %q: %w", ErrDeltaChain, n.parent, p.err))
		}
		if broken == nil && n.parentID != 0 && n.parentID != p.id {
			broken = fmt.Errorf("%w: image %q is not the recorded parent (identity mismatch)", ErrDeltaChain, n.parent)
		}
		n = p
	}
	return out, broken
}

// tips returns, sorted, the readable images no other names as parent.
func (g *lineageGraph) tips() []string {
	named := make(map[string]bool, len(g.nodes))
	for _, n := range g.nodes {
		named[n.parent] = true
	}
	var out []string
	for name, n := range g.nodes {
		if n.err == nil && !named[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// readNode is the one lineage header reader: GetAt serves the
// prologue's bytes alone — a CASStore from the manifest's inline
// bytes, fetching no chunk. A read that fails mid-header reports that
// failure, not a malformed header.
func readNode(ctx context.Context, store Store, name string) (*lineageNode, error) {
	ra, size, err := store.GetAt(ctx, name)
	if err != nil {
		return nil, wrapCancelled(err)
	}
	defer ra.Close()
	er := &readErrReader{r: io.NewSectionReader(ra, 0, size)}
	n, err := parseHeader(er)
	if er.err != nil {
		return nil, wrapCancelled(fmt.Errorf("image %q: reading header: %w", name, er.err))
	}
	return n, err
}

// readErrReader remembers the first read error that is not the end of
// the data.
type readErrReader struct {
	r   io.Reader
	err error
}

func (e *readErrReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err != nil && err != io.EOF && e.err == nil {
		e.err = err
	}
	return n, err
}

// parseHeader parses the lineage fields of an image's prologue, or of
// the one a raw CRACCAS1 manifest mirrors (no identities), reading no
// byte past them.
func parseHeader(r io.Reader) (*lineageNode, error) {
	var magic [8]byte
	n, _ := io.ReadFull(r, magic[:]) // a short read fails in the parser below
	r = io.MultiReader(bytes.NewReader(magic[:n]), r)
	if cas.IsManifestHeader(magic[:n]) {
		m, err := cas.ReadManifestMeta(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
		}
		return &lineageNode{parent: m.Parent}, nil
	}
	meta, err := dmtcp.ReadImageMeta(r)
	if err != nil {
		return nil, err
	}
	return &lineageNode{parent: meta.Parent, id: meta.ID, parentID: meta.ParentID}, nil
}
