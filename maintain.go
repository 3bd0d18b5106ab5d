package crac

import (
	"cmp"
	"errors"
)

// notAnImage reports whether a lineage node's error says the name holds
// no image this build reads — missing, quarantined, or bytes that are
// no image header — rather than one that could not be read.
func notAnImage(err error) bool {
	return errors.Is(err, ErrImageNotFound) || errors.Is(err, ErrBadImage) || errors.Is(err, ErrUnsupportedVersion)
}

// closure returns seeds plus every name they reach, and the error of a
// member that cannot be read, whose ancestry is thus unknown. A member
// that is no image names no parent.
func (g *lineageGraph) closure(seeds []string) (map[string]bool, error) {
	out := make(map[string]bool, len(seeds))
	var unreadable error
	for _, s := range seeds {
		anc, _ := g.ancestors(s)
		for _, m := range append(anc, s) {
			out[m] = true
			if err := g.node(m).err; err != nil && !notAnImage(err) {
				unreadable = cmp.Or(unreadable, err)
			}
		}
	}
	return out, unreadable
}

// condemn is the one rule deciding what a store keeps, for DirStore
// retention and Compact: it deletes through del each candidate outside
// the closure of seeds, unless a closure member cannot be read — it
// might name any candidate, so then nothing is deleted. It returns the
// candidates deleted (a candidate already gone counts) and those kept.
func condemn(g *lineageGraph, seeds, candidates []string, del func(name string) error) (deleted, kept []string) {
	keep, err := g.closure(seeds)
	for _, c := range candidates {
		if err != nil || keep[c] {
			kept = append(kept, c)
		} else if derr := del(c); derr != nil && !errors.Is(derr, ErrImageNotFound) {
			kept = append(kept, c)
		} else {
			deleted = append(deleted, c)
		}
	}
	return deleted, kept
}
