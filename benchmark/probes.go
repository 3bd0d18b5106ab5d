package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	crac "repro"
	"repro/internal/addrspace"
	"repro/internal/cas"
	"repro/internal/cracplugin"
	"repro/internal/crt"
	"repro/internal/dmtcp"
	"repro/internal/netstore"
	"repro/internal/replaylog"
)

// runProbes fills vals with the probe rows of the layer ledger. Probes
// run once, after the traced loop, with the timed stores switched off:
// first on what the workload left behind (its last image chain, its
// session), then on fixed scenarios that are the same in every
// workload and give each layer's unit cost.
func runProbes(e *env, w workload, vals map[string]float64) error {
	x, store, tip := w.target()
	if x == nil {
		return fmt.Errorf("the workload left no image to probe")
	}
	chain, err := captureChain(e.ctx, store, tip)
	if err != nil {
		return fmt.Errorf("capturing %s: %w", tip, err)
	}
	readNs, err := probeImageRead(chain, vals)
	if err != nil {
		return fmt.Errorf("dmtcp: %w", err)
	}
	entries, err := probeReplayLog(e.ctx, store, tip, vals)
	if err != nil {
		return fmt.Errorf("replaylog: %w", err)
	}
	if err := probeChunker(chain, vals); err != nil {
		return fmt.Errorf("cas chunker: %w", err)
	}
	if err := probeCASStore(e.ctx, chain, vals); err != nil {
		return fmt.Errorf("cas store: %w", err)
	}
	if err := probeRestart(e.ctx, x, store, tip, readNs, entries, vals); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if err := probeAddrspace(x, vals); err != nil {
		return fmt.Errorf("addrspace: %w", err)
	}
	if err := probeCallMix(vals); err != nil {
		return fmt.Errorf("call mix: %w", err)
	}
	if err := probeEmptySession(e.ctx, vals); err != nil {
		return fmt.Errorf("empty session: %w", err)
	}
	if err := probePool(e, vals); err != nil {
		return fmt.Errorf("pool: %w", err)
	}
	// One buffer far larger than the last-level cache serves both the
	// network bodies and the floors.
	big := make([]byte, e.bigBytes)
	rand.New(rand.NewSource(e.seed)).Read(big)
	fmt.Printf("probes: %d MiB buffer against a last-level cache of %s\n", len(big)>>20, llcSize())
	if err := probeNetstore(e.ctx, big, vals); err != nil {
		return fmt.Errorf("netstore: %w", err)
	}
	return probeFloors(e, big, vals)
}

// image is one stored member of a delta chain, as raw bytes.
type image struct {
	name string
	data []byte
}

// captureChain reads the named image and its ancestors out of the
// store, tip first.
func captureChain(ctx context.Context, store crac.Store, tip string) ([]image, error) {
	var chain []image
	for name := tip; name != ""; {
		rc, err := store.Get(ctx, name)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		chain = append(chain, image{name, data})
		meta, err := dmtcp.ReadImageMeta(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		name = meta.Parent
	}
	return chain, nil
}

func chainBytes(chain []image) (n float64) {
	for _, im := range chain {
		n += float64(len(im.data))
	}
	return n
}

// probeImageRead times the two ways a restart reads an image: the full
// decode (dmtcp.ReadImage, every member of the chain) and the
// header-only shard index scan with the chain linked up. It returns
// the decode time for the replay probe.
func probeImageRead(chain []image, vals map[string]float64) (time.Duration, error) {
	t0 := time.Now()
	for _, im := range chain {
		if _, err := dmtcp.ReadImage(bytes.NewReader(im.data)); err != nil {
			return 0, err
		}
	}
	read := time.Since(t0)
	vals["dmtcp.read_ns_per_byte"] = ratio(float64(read), chainBytes(chain))

	t0 = time.Now()
	var child *dmtcp.ShardIndex
	for _, im := range chain {
		ix, err := dmtcp.OpenShardIndex(bytes.NewReader(im.data), int64(len(im.data)))
		if err != nil {
			return 0, err
		}
		if child != nil {
			if err := child.SetParent(ix); err != nil {
				return 0, err
			}
		}
		child = ix
	}
	vals["dmtcp.index_scan_us"] = float64(time.Since(t0)) / 1e3
	return read, nil
}

// probeReplayLog runs the log's exported operations on the log section
// of the image: decode, re-encode, derive the active set, and append
// every entry to a fresh log.
func probeReplayLog(ctx context.Context, store crac.Store, tip string, vals map[string]float64) (int, error) {
	img, err := crac.OpenImageFrom(ctx, store, tip)
	if err != nil {
		return 0, err
	}
	raw, ok := img.Section(cracplugin.SectionLog)
	if !ok {
		return 0, fmt.Errorf("image %s has no %s section", tip, cracplugin.SectionLog)
	}
	t0 := time.Now()
	log, err := replaylog.DecodeBytes(raw)
	if err != nil {
		return 0, err
	}
	decode := time.Since(t0)
	entries := log.Entries()
	n := float64(len(entries))

	t0 = time.Now()
	if err := replaylog.EncodeEntries(io.Discard, entries); err != nil {
		return 0, err
	}
	encode := time.Since(t0)

	t0 = time.Now()
	replaylog.ActiveOf(entries)
	active := time.Since(t0)

	fresh := replaylog.New()
	t0 = time.Now()
	for _, en := range entries {
		fresh.Append(en)
	}
	appendNs := time.Since(t0)

	vals["replaylog.entries"] = n
	vals["replaylog.decode_ns_per_entry"] = ratio(float64(decode), n)
	vals["replaylog.encode_ns_per_entry"] = ratio(float64(encode), n)
	vals["replaylog.active_ns_per_entry"] = ratio(float64(active), n)
	vals["replaylog.append_ns"] = ratio(float64(appendNs), n)
	return len(entries), nil
}

// probeChunker feeds the chain through the CAS chunker into a sink that
// discards, then round-trips the tip's manifest.
func probeChunker(chain []image, vals map[string]float64) error {
	var man *cas.Manifest
	t0 := time.Now()
	for i := len(chain) - 1; i >= 0; i-- {
		ch := cas.NewChunker(func(_ string, buf *[]byte, _ int) error {
			cas.ReleaseBuf(buf)
			return nil
		})
		if _, err := ch.Write(chain[i].data); err != nil {
			return err
		}
		var err error
		if man, err = ch.Finish(); err != nil {
			return err
		}
	}
	vals["cas.chunk_ns_per_byte"] = ratio(float64(time.Since(t0)), chainBytes(chain))

	var enc bytes.Buffer
	if err := man.Encode(&enc); err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := cas.DecodeManifest(&enc); err != nil {
		return err
	}
	vals["cas.manifest_decode_us"] = float64(time.Since(t0)) / 1e3
	return nil
}

// probeCASStore pushes the chain through a CASStore between two timed
// stores — base first, as it was written — reads the tip back through
// random access, then compacts and collects.
func probeCASStore(ctx context.Context, chain []image, vals map[string]float64) error {
	inner := newTimedStore(crac.NewMemStore(), levelBacking)
	cs := crac.NewCASStore(inner)
	outer := newTimedStore(cs, levelTop)
	inner.arm(true)
	outer.arm(true)

	for i := len(chain) - 1; i >= 0; i-- {
		im := chain[i]
		err := outer.Put(ctx, im.name, func(w io.Writer) error {
			_, err := w.Write(im.data)
			return err
		})
		if err != nil {
			return err
		}
	}
	top, bottom := outer.totals(), inner.totals()
	n := float64(len(chain))
	vals["cas.self_ms_per_put"] = msOf(casSelf(top, bottom)) / n
	vals["cas.chunks_put_per_ckpt"] = float64(bottom.puts)/n - 1 // one manifest per image

	rep, err := crac.DedupReport(ctx, cs)
	if err != nil {
		return err
	}
	vals["cas.chunks_skipped_per_ckpt"] = (float64(rep.ChunkRefs) - (float64(bottom.puts) - n)) / n
	vals["cas.dedup_ratio"] = rep.Ratio()

	tip := chain[0]
	ra, size, err := outer.GetAt(ctx, tip.name)
	if err != nil {
		return err
	}
	got := make([]byte, size)
	_, err = ra.ReadAt(got, 0)
	ra.Close()
	if err != nil && err != io.EOF {
		return err
	}
	if !bytes.Equal(got, tip.data) {
		return fmt.Errorf("image %s read back through CAS differs from what was stored", tip.name)
	}
	top2, bottom2 := outer.totals(), inner.totals()
	vals["cas.reassemble_ns_per_byte"] = ratio(
		float64((top2.getWall-top.getWall)-(bottom2.getWall-bottom.getWall)), float64(size))

	t0 := time.Now()
	if _, err := crac.Compact(ctx, cs, tip.name); err != nil {
		return err
	}
	vals["compact.ms"] = msOf(time.Since(t0))
	vals["compact.bytes_rewritten"] = float64(inner.totals().bytesPut - bottom2.bytesPut)
	t0 = time.Now()
	if _, err := cs.GC(ctx); err != nil {
		return err
	}
	vals["cas.gc_ms"] = msOf(time.Since(t0))
	return nil
}

// probeRestart restarts the workload's session from its last image both
// ways. Eager: what is left of the wall after the image decode is
// lower-half rebuild, log replay and refill, quoted per log entry.
// Lazy: the visible and background halves the call itself reports.
func probeRestart(ctx context.Context, x *sess, store crac.Store, tip string,
	read time.Duration, entries int, vals map[string]float64) error {
	t0 := time.Now()
	if err := x.s.RestartFrom(ctx, store, tip); err != nil {
		return err
	}
	rest := time.Since(t0) - read
	vals["cracplugin.replay_us_per_entry"] = ratio(float64(rest)/1e3, float64(entries))

	p, err := x.s.RestartAsync(ctx, store, tip)
	if err != nil {
		return err
	}
	st, err := p.Wait()
	if err != nil {
		return err
	}
	vals["dmtcp.lazy_visible_ms"] = msOf(st.RestoreVisibleDuration)
	vals["dmtcp.lazy_background_ms"] = msOf(st.RestoreBackgroundDuration)
	return nil
}

// probeAddrspace works on the quiesced session's address space: arm a
// copy-on-write snapshot, read every region of both halves through it, scan
// for dirty pages, then resume and write under the armed snapshot to
// see the pages it retains.
func probeAddrspace(x *sess, vals map[string]float64) error {
	if err := x.s.Quiesce(); err != nil {
		return err
	}
	space := x.s.Space()
	t0 := time.Now()
	sn := space.Snapshot()
	vals["addrspace.snapshot_arm_us"] = float64(time.Since(t0)) / 1e3
	defer sn.Release()

	buf := make([]byte, 1<<20)
	var total uint64
	t0 = time.Now()
	for _, r := range sn.Regions() {
		for off := uint64(0); off < r.Len; off += uint64(len(buf)) {
			n := min(uint64(len(buf)), r.Len-off)
			if err := sn.ReadAt(r.Start+off, buf[:n]); err != nil {
				x.s.Resume()
				return err
			}
			total += n
		}
	}
	vals["addrspace.view_read_ns_per_byte"] = ratio(float64(time.Since(t0)), float64(total))

	t0 = time.Now()
	sn.DirtySince(addrspace.HalfUpper, 1)
	vals["addrspace.dirty_scan_us"] = float64(time.Since(t0)) / 1e3

	if err := x.s.Resume(); err != nil {
		return err
	}
	for _, b := range x.m.bufs {
		if err := x.fill(b, 0, pageSize, ^b.pages[0]); err != nil {
			return err
		}
	}
	vals["addrspace.retained_pages_peak"] = float64(space.RetainedPages())
	return nil
}

const probeRounds = 300

// probeCallMix runs the replay_churn app-phase call mix on three
// bindings of the same runtime interface: CRAC with the syscall fs
// switch (the default), CRAC with FSGSBASE, and native.
func probeCallMix(vals map[string]float64) error {
	mix := func(rt crt.Runtime) (float64, error) {
		x, err := bindSess(rt)
		if err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(1))
		t0 := time.Now()
		for r := 0; r < probeRounds; r++ {
			if err := x.appRound(rng, r); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / (probeRounds * appRoundCalls), nil
	}
	for _, p := range []struct {
		metric string
		opts   []crac.Option
	}{
		{"cracrt.call_ns", nil},
		{"fsgs.fsgsbase_call_ns", []crac.Option{crac.WithSwitcher(crac.SwitchFSGSBase)}},
	} {
		s, err := crac.New(p.opts...)
		if err != nil {
			return err
		}
		v, err := mix(s.Runtime())
		s.Close()
		if err != nil {
			return err
		}
		vals[p.metric] = v
	}
	native, err := crac.NewNative()
	if err != nil {
		return err
	}
	defer native.Close()
	vals["cracrt.native_call_ns"], err = mix(native)
	return err
}

// probeEmptySession prices a session with no allocations: creating one,
// and the fixed cost of checkpointing and restarting it.
func probeEmptySession(ctx context.Context, vals map[string]float64) error {
	var news, ckpts, restarts []float64
	store := crac.NewMemStore()
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		s, err := crac.New()
		if err != nil {
			return err
		}
		news = append(news, msOf(time.Since(t0)))
		for k := 0; k < 4; k++ {
			t0 = time.Now()
			if _, err := s.CheckpointTo(ctx, store, "empty"); err != nil {
				s.Close()
				return err
			}
			ckpts = append(ckpts, float64(time.Since(t0))/1e3)
			t0 = time.Now()
			if err := s.RestartFrom(ctx, store, "empty"); err != nil {
				s.Close()
				return err
			}
			restarts = append(restarts, float64(time.Since(t0))/1e3)
		}
		s.Close()
	}
	vals["session.new_ms"] = median(news)
	vals["session.fixed_ckpt_us"] = median(ckpts)
	vals["session.fixed_restart_us"] = median(restarts)
	return nil
}

// floorBytes is the probes' bandwidth buffer, far larger than most
// last-level caches (the run prints both sizes).
const floorBytes = 64 << 20

// probeNetstore drives a netstore.Client against the netstore handler
// on loopback with a 1 KiB and a 64 MiB body.
func probeNetstore(ctx context.Context, big []byte, vals map[string]float64) error {
	srv, err := serveLoopback(crac.ServeStore(crac.NewMemStore()), 2)
	if err != nil {
		return err
	}
	defer srv.stop()
	c, err := netstore.NewClient(srv.url, srv.client)
	if err != nil {
		return err
	}
	put := func(name string, body []byte) (time.Duration, error) {
		t0 := time.Now()
		err := c.Put(ctx, name, func(w io.Writer) error {
			_, err := w.Write(body)
			return err
		})
		return time.Since(t0), err
	}
	small := make([]byte, 1<<10)
	var rtts []float64
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("small%02d", i)
		d, err := put(names[i], small)
		if err != nil {
			return err
		}
		rtts = append(rtts, float64(d)/1e3)
	}
	vals["netstore.put_rtt_us"] = median(rtts)

	var probes []float64
	for i := 0; i < 16; i++ {
		t0 := time.Now()
		if _, err := c.ExistsBatch(ctx, names); err != nil {
			return err
		}
		probes = append(probes, float64(time.Since(t0))/1e3)
	}
	vals["netstore.exists_batch_us"] = median(probes)

	d, err := put("big", big)
	if err != nil {
		return err
	}
	vals["netstore.put_ns_per_byte"] = float64(d) / float64(len(big))
	t0 := time.Now()
	rc, err := c.Get(ctx, "big")
	if err != nil {
		return err
	}
	n, err := io.Copy(io.Discard, rc)
	rc.Close()
	if err != nil {
		return err
	}
	if n != int64(len(big)) {
		return fmt.Errorf("read %d of %d bytes back", n, len(big))
	}
	vals["netstore.get_ns_per_byte"] = float64(time.Since(t0)) / float64(len(big))
	return nil
}

// probePool runs a small fleet — eight fleet_http-sized sessions over a
// MemStore, a retained-page budget of two cuts — so checkpoints queue
// whenever more than two clients are in flight.
func probePool(e *env, vals map[string]float64) error {
	pages, err := fleetSessionPages()
	if err != nil {
		return err
	}
	pool, err := crac.NewPool(crac.NewMemStore(),
		crac.WithPoolSessionOptions(fleetSessionOpts()...), crac.WithPoolPageBudget(2*pages))
	if err != nil {
		return err
	}
	defer pool.Close()

	const sessions, rounds = 8, 12
	var opens []float64
	pss := make([]*crac.PoolSession, sessions)
	for i := range pss {
		t0 := time.Now()
		if pss[i], err = pool.Open(fleetTenant(i)); err != nil {
			return err
		}
		opens = append(opens, msOf(time.Since(t0)))
		x, err := newSess(pss[i].Session())
		if err != nil {
			return err
		}
		if err := fleetFill(x, rand.New(rand.NewSource(int64(i)))); err != nil {
			return err
		}
	}
	var mu sync.Mutex
	var waits []float64
	var firstErr error
	var wg sync.WaitGroup
	for i, ps := range pss {
		wg.Add(1)
		go func(i int, ps *crac.PoolSession) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				t0 := time.Now()
				st, err := ps.Checkpoint(e.ctx, fmt.Sprintf("p%d-%d", i, k%2))
				wait := time.Since(t0) - st.Duration
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				waits = append(waits, msOf(wait))
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(i, ps)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	st := pool.Stats()
	vals["pool.open_ms"] = median(opens)
	vals["pool.queue_wait_ms_p50"] = median(waits)
	vals["pool.queue_wait_ms_p99"] = quantile(waits, 0.99)
	vals["pool.reserved_page_peak"] = float64(st.ReservedPagePeak)
	vals["pool.rejections"] = float64(st.RejectedQuota + st.RejectedSaturated)
	return nil
}

// probeFloors measures what the machine does to one 64 MiB buffer, far
// larger than the last-level cache: the bound every ns/B row is quoted
// against.
func probeFloors(e *env, src []byte, vals map[string]float64) error {
	dst := make([]byte, len(src))
	perByte := func(f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0)) / float64(len(src))
	}
	vals["floor.memcpy_ns_per_byte"] = perByte(func() { copy(dst, src) })
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	vals["floor.crc32c_ns_per_byte"] = perByte(func() { crc32.Checksum(src, castagnoli) })
	vals["floor.sha256_ns_per_byte"] = perByte(func() { sha256.Sum256(src) })
	vals["floor.fnv1a_ns_per_byte"] = perByte(func() {
		h := fnv.New64a()
		h.Write(src)
		h.Sum64()
	})

	dir, err := e.dir("floor")
	if err != nil {
		return err
	}
	var ferr error
	vals["floor.file_fsync_ns_per_byte"] = perByte(func() {
		tmp := filepath.Join(dir, "floor.tmp")
		f, err := os.Create(tmp)
		if err != nil {
			ferr = err
			return
		}
		_, err = f.Write(src)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, filepath.Join(dir, "floor.img"))
		}
		ferr = err
	})
	return ferr
}
