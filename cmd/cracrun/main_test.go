package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, want := range []string{"Hotspot", "LULESH", "UnifiedMemoryStreams"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownAppAndMode(t *testing.T) {
	if code, _, errOut := runCmd(t, "-app", "NoSuchApp"); code != 2 || !strings.Contains(errOut, "unknown app") {
		t.Fatalf("unknown app: exit=%d stderr=%q", code, errOut)
	}
	if code, _, errOut := runCmd(t, "-app", "Hotspot", "-mode", "bogus"); code != 2 || !strings.Contains(errOut, "unknown mode") {
		t.Fatalf("unknown mode: exit=%d stderr=%q", code, errOut)
	}
	if code, _, errOut := runCmd(t, "-app", "Hotspot", "-mode", "native", "-ckpt", "x.img"); code != 2 || !strings.Contains(errOut, "crac mode") {
		t.Fatalf("-ckpt under native: exit=%d stderr=%q", code, errOut)
	}
}

// TestCheckpointRestartRoundTrip smoke-runs the full cracrun flow: run
// an app under CRAC, checkpoint mid-run into a file, restart from it,
// and finish with a correct checksum.
func TestCheckpointRestartRoundTrip(t *testing.T) {
	img := filepath.Join(t.TempDir(), "ckpt.img")
	code, out, errOut := runCmd(t,
		"-app", "Hotspot", "-mode", "crac", "-scale", "0.1", "-ckpt", img, "-ckpt-step", "1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "checkpoint:") || !strings.Contains(out, "restart:") {
		t.Fatalf("missing checkpoint/restart lines:\n%s", out)
	}
	if !strings.Contains(out, "Hotspot under CRAC") {
		t.Fatalf("missing result block:\n%s", out)
	}
	if fi, err := os.Stat(img); err != nil || fi.Size() == 0 {
		t.Fatalf("image file: %v, %v", fi, err)
	}
}

// TestCheckpointDirStoreGenerations exercises the -ckpt-dir flavor:
// repeated runs against the same directory accumulate generations
// instead of overwriting gen000.
func TestCheckpointDirStoreGenerations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	for run, wantGen := range []string{"gen000", "gen001"} {
		code, out, errOut := runCmd(t,
			"-app", "Hotspot", "-mode", "crac", "-scale", "0.1",
			"-ckpt-dir", dir, "-keep", "2", "-ckpt-step", "1")
		if code != 0 {
			t.Fatalf("run %d exit = %d, stderr:\n%s", run, code, errOut)
		}
		if !strings.Contains(out, "checkpoint: "+wantGen) {
			t.Fatalf("run %d missing %s checkpoint line:\n%s", run, wantGen, out)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("want 2 images in -ckpt-dir, got: %v, %v", entries, err)
	}
}

func TestConflictingStoreFlagsAndHelp(t *testing.T) {
	if code, _, errOut := runCmd(t, "-app", "Hotspot", "-ckpt", "x.img", "-ckpt-dir", "d"); code != 2 ||
		!strings.Contains(errOut, "mutually exclusive") {
		t.Fatalf("conflicting flags: exit=%d stderr=%q", code, errOut)
	}
	if code, _, _ := runCmd(t, "-h"); code != 0 {
		t.Fatalf("-h exit = %d, want 0", code)
	}
}

// TestIncrementalChain runs a workload checkpointing every step into a
// delta chain, then restores the chain tip at the end of the run.
func TestIncrementalChain(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	code, out, errOut := runCmd(t,
		"-app", "Hotspot", "-mode", "crac", "-scale", "0.1",
		"-ckpt-dir", dir, "-incremental", "8", "-ckpt-step", "1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "checkpoint: gen000 (") {
		t.Fatalf("missing base checkpoint line:\n%s", out)
	}
	if !strings.Contains(out, "checkpoint: gen001 delta (depth 1") {
		t.Fatalf("missing delta checkpoint line:\n%s", out)
	}
	if !strings.Contains(out, "restart: chain tip") {
		t.Fatalf("missing chain-tip restart line:\n%s", out)
	}
	if !strings.Contains(out, "Hotspot under CRAC") {
		t.Fatalf("missing result block:\n%s", out)
	}
}

// TestIncrementalRequiresDirStore pins the flag validation.
func TestIncrementalRequiresDirStore(t *testing.T) {
	if code, _, errOut := runCmd(t, "-app", "Hotspot", "-ckpt", "x.img", "-incremental", "3"); code != 2 ||
		!strings.Contains(errOut, "-incremental requires -ckpt-dir") {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
}

// TestConcurrentCheckpointFlag: every checkpoint is snapshot-and-release
// — the run reports the application-visible pause and still restarts
// from the image — and the -concurrent flag that used to select that
// is gone.
func TestConcurrentCheckpointFlag(t *testing.T) {
	dir := t.TempDir()
	if code, _, _ := runCmd(t, "-app", "Hotspot", "-ckpt-dir", dir, "-concurrent"); code != 2 {
		t.Fatalf("-concurrent exit = %d, want 2 (unknown flag)", code)
	}
	code, out, errOut := runCmd(t,
		"-app", "Hotspot", "-mode", "crac", "-scale", "0.1",
		"-ckpt-dir", dir, "-ckpt-step", "1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "checkpoint: gen000") || !strings.Contains(out, "(paused ") {
		t.Fatalf("missing checkpoint/pause lines:\n%s", out)
	}
	if !strings.Contains(out, "restart:") {
		t.Fatalf("missing restart line:\n%s", out)
	}
}

// TestConcurrentIncrementalChain: overlapped delta checkpoints report
// their pause too, and the chain tip restores.
func TestConcurrentIncrementalChain(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := runCmd(t,
		"-app", "Hotspot", "-mode", "crac", "-scale", "0.1",
		"-ckpt-dir", dir, "-ckpt-step", "1", "-incremental", "4")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "checkpoint: gen001 delta (depth 1") {
		t.Fatalf("missing delta line:\n%s", out)
	}
	if !strings.Contains(out, "(paused ") || !strings.Contains(out, "chain tip") {
		t.Fatalf("missing pause/chain-tip lines:\n%s", out)
	}
}

// TestLazyRestartFlag exercises -lazy end-to-end: the restart reports
// its visible pause, the time-to-first-kernel of the next app step,
// and the background drain's completion.
func TestLazyRestartFlag(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := runCmd(t,
		"-app", "Hotspot", "-mode", "crac", "-scale", "0.1",
		"-ckpt-dir", dir, "-ckpt-step", "2", "-lazy")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	for _, want := range []string{
		"restart: lazy, executing after",
		"time-to-first-kernel",
		"background drain finished",
		"Hotspot under CRAC",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}
