package lifecycle

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"vmsh/internal/blockdev"
	"vmsh/internal/core"
	"vmsh/internal/fsimage"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/mem"
)

func launch(t *testing.T, h *hostsim.Host, name string, seed int64) *hypervisor.Instance {
	t.Helper()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:          hypervisor.QEMU,
		Name:          name,
		KernelVersion: "5.10",
		RootFS:        fsimage.GuestRoot(name),
		Seed:          seed,
		RAMSize:       32 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func toolImage(t *testing.T, h *hostsim.Host, name string) *hostsim.HostFile {
	t.Helper()
	m := fsimage.ToolImage()
	img := h.CreateFile(name, m.Size()+64<<20, false)
	if err := fsimage.Build(blockdev.NewHostFileDevice(img), m); err != nil {
		t.Fatal(err)
	}
	return img
}

// dirty writes a recognisable pattern into n freshly allocated guest
// pages: the workload knob every migration test turns.
func dirty(t *testing.T, inst *hypervisor.Instance, n int, tag byte) {
	t.Helper()
	gpa, err := inst.Kernel.AllocPages(n)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n*PageSize)
	for i := range buf {
		buf[i] = tag ^ byte(i)
	}
	if err := inst.VM.GuestMem().WritePhys(gpa, buf); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "snap-rt", 42)
	dirty(t, inst, 4, 0x5a)

	snap, err := Take(inst, TakeOpts{Label: "rt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Pages) == 0 || len(snap.RAMHashes) == 0 {
		t.Fatalf("empty snapshot: %d pages, %d hashes", len(snap.Pages), len(snap.RAMHashes))
	}

	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "rt" || got.Config.Name != "snap-rt" || len(got.Pages) != len(snap.Pages) {
		t.Fatalf("decode mismatch: label=%q name=%q pages=%d/%d",
			got.Label, got.Config.Name, len(got.Pages), len(snap.Pages))
	}

	// Canonical encoding: re-encoding the decoded snapshot is
	// byte-identical.
	var buf2 bytes.Buffer
	if _, err := got.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoded snapshot differs from original encoding")
	}
}

func TestRestoreReconstructsRAM(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "snap-restore", 44)
	dirty(t, inst, 8, 0xa1)

	snap, err := Take(inst, TakeOpts{})
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip through the wire format so the restore exercises the
	// decoded form.
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	h2 := hostsim.NewHost()
	inst2, sess, err := Restore(h2, snap2, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sess != nil {
		t.Fatal("no session captured, none should come back")
	}
	// Restore cross-checks hashes itself; double-check independently.
	src, dst := slotsByNum(inst), slotsByNum(inst2)
	if len(src) != len(dst) {
		t.Fatalf("slot count differs: %d != %d", len(src), len(dst))
	}
	for i := range src {
		if !bytes.Equal(src[i].Phys.Data, dst[i].Phys.Data) {
			t.Fatalf("memslot %d diverged after restore", src[i].Slot)
		}
	}
}

func TestSnapshotWithSessionRestoresSession(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "snap-sess", 45)
	img := toolImage(t, h, "tools.img")
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("echo pre-snapshot"); err != nil {
		t.Fatal(err)
	}

	snap, err := Take(inst, TakeOpts{Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Session == nil {
		t.Fatal("session state not captured")
	}

	h2 := hostsim.NewHost()
	_, sess2, err := Restore(h2, snap, RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sess2 == nil {
		t.Fatal("session not re-attached on restore")
	}
	out, err := sess2.Exec("echo post-restore")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "post-restore") {
		t.Fatalf("restored session exec: %q", out)
	}
}

func TestMigrateStopAndCopy(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "mig-sc", 46)
	dirty(t, inst, 4, 0x11) // pre-migration state

	h2 := hostsim.NewHost()
	res, err := Migrate(inst, h2, MigrateOpts{
		PrecopyRounds: 2,
		Workload:      func(round int) { dirty(t, inst, 2, byte(round)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("RAM diverged: %v", err)
	}
	if len(res.SrcHashes) == 0 || len(res.Rounds) != 2 {
		t.Fatalf("res incomplete: %d hashes, %d rounds", len(res.SrcHashes), len(res.Rounds))
	}
	for _, r := range res.Rounds {
		if r.Pages == 0 {
			t.Fatalf("round %d moved no pages despite workload", r.Round)
		}
	}
	if res.PagesPrecopy == 0 {
		t.Fatal("no pages moved pre-pause")
	}
	if res.Downtime <= 0 || res.Total < res.Downtime {
		t.Fatalf("implausible times: downtime=%v total=%v", res.Downtime, res.Total)
	}
	if res.BytesOnWire == 0 {
		t.Fatal("migration charged nothing to the link")
	}
}

func TestMigratePostCopyStreamsOnDemand(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "mig-pc", 47)

	h2 := hostsim.NewHost()
	res, err := Migrate(inst, h2, MigrateOpts{
		PrecopyRounds: 1,
		PostCopy:      true,
		// Dirty after the precopy round so pages stay pending at cutover.
		Workload: func(round int) { dirty(t, inst, 8, 0x33) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The workload ran before the final dirty-log read, so those pages
	// are pending, not copied.
	if res.Pending() == 0 {
		t.Fatal("post-copy migration has nothing pending")
	}
	if res.PagesCutover != 0 {
		t.Fatalf("post-copy moved %d pages under pause", res.PagesCutover)
	}

	// Touching a pending page on the destination faults it across.
	var slot uint32
	var idx uint64
	for s, set := range res.m.pending {
		for i := range set {
			slot, idx = s, i
			break
		}
		break
	}
	dp := slotPhys(res.Dst, slot)
	if dp == nil {
		t.Fatal("pending slot has no destination slab")
	}
	before := res.PagesFaulted
	_ = dp.Slice(dp.Base+mem.GPA(idx*PageSize), 8)
	if res.PagesFaulted != before+1 {
		t.Fatalf("access did not fault the page across (faulted=%d)", res.PagesFaulted)
	}

	// Verify drains the rest and proves byte equality.
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Pending() != 0 {
		t.Fatalf("%d pages still pending after Verify", res.Pending())
	}
	if res.PagesDrained == 0 {
		t.Fatal("drain moved nothing")
	}
}

func TestMigrateSessionSurvives(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "mig-sess", 48)
	img := toolImage(t, h, "tools.img")
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("echo before-migration"); err != nil {
		t.Fatal(err)
	}

	h2 := hostsim.NewHost()
	res, err := Migrate(inst, h2, MigrateOpts{PrecopyRounds: 1, Session: sess})
	if err != nil {
		t.Fatal(err)
	}
	if res.Session == nil {
		t.Fatal("session did not survive migration")
	}
	out, err := res.Session.Exec("echo after-migration")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "after-migration") {
		t.Fatalf("migrated session exec: %q", out)
	}
	// Migrate verified hash equality at resume, before the re-attach.
	if len(res.SrcHashes) == 0 || len(res.SrcHashes) != len(res.DstHashes) {
		t.Fatalf("resume-time hashes missing: %d/%d", len(res.SrcHashes), len(res.DstHashes))
	}
	for i := range res.SrcHashes {
		if res.SrcHashes[i] != res.DstHashes[i] {
			t.Fatalf("hash %d diverged: %016x != %016x", i, res.SrcHashes[i], res.DstHashes[i])
		}
	}
	if err := res.Session.Detach(); err != nil {
		t.Fatal(err)
	}
}

func TestMigratePostCopySessionReattachesMidStream(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "mig-pc-sess", 51)
	img := toolImage(t, h, "tools.img")
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Image: img})
	if err != nil {
		t.Fatal(err)
	}

	h2 := hostsim.NewHost()
	res, err := Migrate(inst, h2, MigrateOpts{
		PrecopyRounds: 1,
		PostCopy:      true,
		Session:       sess,
		Workload:      func(round int) { dirty(t, inst, 32, 0x44) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The re-attach happened while pages were still pending: the attach
	// transaction's own RAM accesses demand-fault them across.
	if res.Session == nil {
		t.Fatal("session did not re-attach")
	}
	if res.PagesFaulted == 0 {
		t.Fatal("mid-stream re-attach faulted no pages on demand")
	}
	out, err := res.Session.Exec("echo mid-stream")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mid-stream") {
		t.Fatalf("post-copy session exec: %q", out)
	}
	// Drain whatever the session's accesses did not pull over.
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Pending() != 0 {
		t.Fatalf("%d pages still pending", res.Pending())
	}
}

func TestMigrateErrorIsTyped(t *testing.T) {
	h := hostsim.NewHost()
	inst := launch(t, h, "mig-err", 49)
	// A Minimal session has no image and cannot be quiesced.
	sess, err := core.New(h).Attach(inst.Proc.PID, core.Options{Minimal: true})
	if err != nil {
		t.Fatal(err)
	}
	h2 := hostsim.NewHost()
	_, err = Migrate(inst, h2, MigrateOpts{Session: sess})
	var me *MigrateError
	if !errors.As(err, &me) {
		t.Fatalf("want *MigrateError, got %T: %v", err, err)
	}
	if me.Phase != PhaseQuiesce || !errors.Is(err, ErrSessionNotQuiescable) {
		t.Fatalf("wrong classification: phase=%s err=%v", me.Phase, err)
	}
	// A failed migration leaves neither dirty tracking on the source
	// nor a destination twin running.
	if log := inst.VM.DirtyLog(false); log != nil {
		t.Fatalf("source dirty tracking still on after failed migrate: %v", log)
	}
	if pids := h2.Pids(); len(pids) != 0 {
		t.Fatalf("destination twin still running after failed migrate: pids %v", pids)
	}
}

func TestPostCopyDowntimeBeatsStopAndCopy(t *testing.T) {
	run := func(postCopy bool) *Result {
		h := hostsim.NewHost()
		inst := launch(t, h, "mig-dt", 50)
		h2 := hostsim.NewHost()
		res, err := Migrate(inst, h2, MigrateOpts{
			PrecopyRounds: 1,
			PostCopy:      postCopy,
			// Heavy dirtying right before cutover: the post-copy
			// advantage is largest when the final set is large.
			Workload: func(round int) { dirty(t, inst, 256, 0x77) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	sc := run(false)
	pc := run(true)
	if pc.Downtime >= sc.Downtime {
		t.Fatalf("post-copy downtime %v not below stop-and-copy %v", pc.Downtime, sc.Downtime)
	}
}

// launchWithData boots a VM with a root disk plus an 8 MiB simplefs
// data disk mounted at /data, and writes and syncs one file on each.
func launchWithData(t *testing.T, h *hostsim.Host, name string, seed int64) *hypervisor.Instance {
	t.Helper()
	inst, err := hypervisor.Launch(h, hypervisor.Config{
		Kind:          hypervisor.QEMU,
		Name:          name,
		KernelVersion: "5.10",
		RootFS:        fsimage.GuestRoot(name),
		Seed:          seed,
		RAMSize:       32 << 20,
		ExtraDisks:    []hypervisor.DiskSpec{{GuestName: "vdb", Size: 8 << 20, Mkfs: true, MountAt: "/data"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := inst.NewGuestProc("writer")
	if err := p.WriteFile("/data/kept", bytes.Repeat([]byte("data-disk "), 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	return inst
}

func checkDataFile(t *testing.T, inst *hypervisor.Instance) {
	t.Helper()
	got, err := inst.NewGuestProc("reader").ReadFile("/data/kept")
	if err != nil {
		t.Fatalf("/data/kept: %v", err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte("data-disk "), 1000)) {
		t.Fatalf("/data/kept: %d bytes, wrong content", len(got))
	}
}

// TestMultiDiskLifecycle pins snapshot and migration of a VM with a
// second disk: the data disk's content survives Restore and Migrate,
// and each migration mode's link charges (per-disk summaries and
// blocks included) and times stay exactly as modelled.
func TestMultiDiskLifecycle(t *testing.T) {
	t.Run("restore", func(t *testing.T) {
		inst := launchWithData(t, hostsim.NewHost(), "md-snap", 61)
		snap, err := Take(inst, TakeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Disks) != 2 || len(snap.Cursors) != 2 {
			t.Fatalf("captured %d disks, %d cursor pairs; want 2 each", len(snap.Disks), len(snap.Cursors))
		}
		inst2, _, err := Restore(hostsim.NewHost(), snap, RestoreOpts{})
		if err != nil {
			t.Fatal(err)
		}
		checkDataFile(t, inst2)
	})
	for _, tc := range []struct {
		name            string
		postCopy        bool
		bytes           int64
		total, downtime time.Duration
	}{
		{"stop-and-copy", false, 723312, 10416019 * time.Nanosecond, 362201 * time.Nanosecond},
		{"post-copy", true, 608400, 10324090 * time.Nanosecond, 270272 * time.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := launchWithData(t, hostsim.NewHost(), "md-mig", 62)
			res, err := Migrate(inst, hostsim.NewHost(), MigrateOpts{
				PrecopyRounds: 1,
				PostCopy:      tc.postCopy,
				Workload: func(round int) {
					dirty(t, inst, 16, byte(round))
					// Disk writes after the initial sync move with the
					// cutover's disk diff.
					p := inst.NewGuestProc("late")
					if err := p.WriteFile("/data/late", []byte{byte(round)}, 0o644); err != nil {
						t.Fatal(err)
					}
					if err := p.Sync(); err != nil {
						t.Fatal(err)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.BytesOnWire != tc.bytes || res.Total != tc.total || res.Downtime != tc.downtime {
				t.Errorf("bytes=%d total=%v downtime=%v; want %d, %v, %v",
					res.BytesOnWire, res.Total, res.Downtime, tc.bytes, tc.total, tc.downtime)
			}
			if err := res.Verify(); err != nil {
				t.Fatal(err)
			}
			checkDataFile(t, res.Dst)
			if got, err := res.Dst.NewGuestProc("reader").ReadFile("/data/late"); err != nil || !bytes.Equal(got, []byte{2}) {
				t.Fatalf("/data/late = %v, %v; want [2]", got, err)
			}
		})
	}
}
