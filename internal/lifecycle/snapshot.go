// Package lifecycle implements first-class VM lifecycle operations on
// the simulated stack: whole-VM snapshot/restore and live migration
// between simulated hosts with pre-copy dirty-page rounds, a
// stop-and-copy cutoff, and a post-copy mode that streams faulted
// pages on demand.
//
// Everything rides on two properties the rest of the repo already
// guarantees: (1) a VM launched twice from the same Config (including
// Seed) boots byte-identically, so a restore/migration target can be
// relaunched and only the pages that diverged afterwards need
// transferring; and (2) PR 4's transactional attach leaves a detached
// guest byte-identical to one never attached to, so a live vmsh
// session can be quiesced, carried across, and re-attached.
package lifecycle

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"vmsh/internal/core"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/kvm"
	"vmsh/internal/mem"
)

// PageSize is the RAM page and disk block granularity of snapshots and
// migration transfers.
const PageSize = mem.PageSize

// TakeOpts parameterises Take.
type TakeOpts struct {
	// Label names the snapshot (diagnostics; stamped into the header).
	Label string
	// Session, when non-nil, is a live vmsh session attached to the VM.
	// Take quiesces it — detaches, which rolls the guest back to its
	// unattached byte state — and records its descriptor and overlay
	// image so Restore can re-attach an equivalent session.
	Session *core.Session
}

// Take captures inst into a Snapshot. The VM keeps running afterwards
// (snapshotting is read-only), except that a Session passed in
// TakeOpts is detached as part of quiescing. Capturing charges no
// virtual time: like recording, a snapshotted run's clock equals an
// unsnapshotted run's.
func Take(inst *hypervisor.Instance, o TakeOpts) (*Snapshot, error) {
	s := &Snapshot{
		Label:  o.Label,
		VTime:  int64(inst.Host.Clock.Now()),
		Config: inst.Cfg,
	}
	if o.Session != nil {
		// Quiesce before reading RAM: detach rolls the guest back to
		// its pre-attach bytes, so the captured state is attach-free.
		st, err := quiesce(o.Session)
		if err != nil {
			return nil, fmt.Errorf("lifecycle snapshot: quiescing session: %w", err)
		}
		s.Session = st
	}
	s.VCPUs, s.Cursors = cpuState(inst)
	for _, sl := range slotsByNum(inst) {
		for _, b := range sparseBlocks(sl.Phys.Data) {
			s.Pages = append(s.Pages, PageRecord{Slot: sl.Slot, Index: b.Index, Data: b.Data})
		}
	}
	s.RAMHashes = inst.VM.RAMHashes()
	for _, d := range inst.Disks {
		s.Disks = append(s.Disks, DiskImage{Name: d.Name, Size: d.File.Size(), Blocks: sparseBlocks(d.File.Bytes())})
	}
	return s, nil
}

// RestoreOpts parameterises Restore.
type RestoreOpts struct {
	// SkipReattach leaves a snapshotted session un-restored: the VM
	// comes back without a vmsh session even if the snapshot holds one.
	SkipReattach bool
}

// Restore reconstructs the snapshotted VM on host h: relaunch from the
// captured Config (byte-deterministic boot), overwrite guest RAM and
// disk images with the captured bytes, restore vCPU register files and
// virtqueue cursors, and — unless SkipReattach — re-attach an
// equivalent vmsh session from the captured descriptor. The restored
// RAM is cross-checked against the snapshot's FNV-64a hashes.
//
// Restore reconstructs the guest's byte state exactly; host-side
// bookkeeping (the simulated kernel's allocator positions, PIDs)
// restarts from boot, which is indistinguishable for a guest quiesced
// at capture.
func Restore(h *hostsim.Host, s *Snapshot, o RestoreOpts) (*hypervisor.Instance, *core.Session, error) {
	fail := func(err error) (*hypervisor.Instance, *core.Session, error) {
		return nil, nil, fmt.Errorf("lifecycle restore: %w", err)
	}
	inst, err := hypervisor.Launch(h, s.Config)
	if err != nil {
		return fail(fmt.Errorf("relaunch: %w", err))
	}

	for _, sl := range inst.VM.MemSlots() {
		clear(sl.Phys.Data)
	}
	for _, pg := range s.Pages {
		p := slotPhys(inst, pg.Slot)
		if p == nil {
			return fail(fmt.Errorf("%w: page for unknown memslot %d", ErrSnapshotCorrupt, pg.Slot))
		}
		if err := fill(p.Data, BlockRecord{Index: pg.Index, Data: pg.Data}); err != nil {
			return fail(fmt.Errorf("memslot %d: %w", pg.Slot, err))
		}
	}
	if err := setCPUState(inst, s.VCPUs, s.Cursors); err != nil {
		return fail(err)
	}
	for _, di := range s.Disks {
		d := diskByName(inst, di.Name)
		if d == nil {
			return fail(fmt.Errorf("%w: image for unknown disk %q", ErrSnapshotCorrupt, di.Name))
		}
		data := d.File.Bytes()
		clear(data)
		if err := fill(data, di.Blocks...); err != nil {
			return fail(fmt.Errorf("disk %s: %w", di.Name, err))
		}
	}

	// Cross-check: the rebuilt RAM must hash exactly as captured.
	got := inst.VM.RAMHashes()
	if len(got) != len(s.RAMHashes) {
		return fail(fmt.Errorf("%w: %d RAM hashes for %d memslots", ErrSnapshotCorrupt, len(s.RAMHashes), len(got)))
	}
	for i := range got {
		if got[i] != s.RAMHashes[i] {
			return fail(fmt.Errorf("%w: memslot #%d", ErrRAMDiverged, i))
		}
	}

	var sess *core.Session
	if s.Session != nil && !o.SkipReattach {
		if sess, err = reattach(inst, s.Session); err != nil {
			return fail(fmt.Errorf("re-attach: %w", err))
		}
	}
	return inst, sess, nil
}

// --- shared helpers (snapshot + migration) -------------------------

// quiesce detaches a live session for capture and describes it: what
// it served, how it was attached and its overlay image's content, read
// after the detach flushed the session's final writes.
func quiesce(sess *core.Session) (*SessionState, error) {
	img := sess.Image()
	if img == nil {
		return nil, fmt.Errorf("%w: minimal attach has no image", ErrSessionNotQuiescable)
	}
	st := &SessionState{
		ImageName: img.Name,
		ImageSize: img.Size(),
		Storage:   sess.StorageBackend(),
		Trap:      int(sess.Trap()),
	}
	if err := sess.Detach(); err != nil {
		return nil, err
	}
	st.Blocks = sparseBlocks(img.Bytes())
	return st, nil
}

// reattach materialises a quiesced session's overlay image on inst's
// host and attaches an equivalent session to inst.
func reattach(inst *hypervisor.Instance, st *SessionState) (*core.Session, error) {
	if st.ImageSize < 0 {
		return nil, fmt.Errorf("%w: negative session image size %d", ErrSnapshotCorrupt, st.ImageSize)
	}
	img := inst.Host.CreateFile(st.ImageName, st.ImageSize, false)
	if err := fill(img.Bytes(), st.Blocks...); err != nil {
		return nil, fmt.Errorf("session image: %w", err)
	}
	return core.New(inst.Host).Attach(inst.Proc.PID, core.Options{
		Image:   img,
		Trap:    core.TrapMode(st.Trap),
		Storage: st.Storage,
	})
}

// cpuState captures every vCPU's register file and both queue ends'
// Go-side cursors of every disk.
func cpuState(inst *hypervisor.Instance) ([]VCPUState, []DiskCursors) {
	var vcpus []VCPUState
	for _, v := range inst.VM.VCPUs() {
		vcpus = append(vcpus, VCPUState{Index: v.Index, Regs: v.GetRegs(), Sregs: v.GetSregs()})
	}
	var cur []DiskCursors
	for _, d := range inst.Disks {
		cur = append(cur, DiskCursors{Disk: d.Name, Drv: d.Drv.Queue().Cursors(), Dev: d.Dev.Dev.DeviceQueue(0).Cursors()})
	}
	return vcpus, cur
}

// setCPUState applies what cpuState captured. A vCPU or disk the
// instance does not have is corruption.
func setCPUState(inst *hypervisor.Instance, vcpus []VCPUState, cur []DiskCursors) error {
	vs := inst.VM.VCPUs()
	for _, v := range vcpus {
		if v.Index < 0 || v.Index >= len(vs) {
			return fmt.Errorf("%w: vcpu %d not present after relaunch", ErrSnapshotCorrupt, v.Index)
		}
		vs[v.Index].SetRegs(v.Regs)
		vs[v.Index].SetSregs(v.Sregs)
	}
	for _, c := range cur {
		d := diskByName(inst, c.Disk)
		if d == nil {
			return fmt.Errorf("%w: cursors for unknown disk %q", ErrSnapshotCorrupt, c.Disk)
		}
		d.Drv.Queue().SetCursors(c.Drv)
		d.Dev.Dev.DeviceQueue(0).SetCursors(c.Dev)
	}
	return nil
}

func diskByName(inst *hypervisor.Instance, name string) *hypervisor.Disk {
	for _, d := range inst.Disks {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// slotsByNum lists the memslots sorted by slot number, so hash order
// is stable regardless of registration order.
func slotsByNum(inst *hypervisor.Instance) []*kvm.MemSlot {
	out := inst.VM.MemSlots()
	slices.SortFunc(out, func(a, b *kvm.MemSlot) int { return cmp.Compare(a.Slot, b.Slot) })
	return out
}

// slotPhys returns the slab behind memslot slot, nil if inst has none.
func slotPhys(inst *hypervisor.Instance, slot uint32) *mem.Phys {
	for _, s := range inst.VM.MemSlots() {
		if s.Slot == slot {
			return s.Phys
		}
	}
	return nil
}

// sparseBlocks captures the non-zero PageSize blocks of data.
func sparseBlocks(data []byte) []BlockRecord {
	var out []BlockRecord
	for off := uint64(0); off < uint64(len(data)); off += PageSize {
		b := data[off:min(off+PageSize, uint64(len(data)))]
		if !allZero(b) {
			out = append(out, BlockRecord{Index: off / PageSize, Data: append([]byte(nil), b...)})
		}
	}
	return out
}

// fill writes blocks into data at their PageSize unit offsets. Each
// index is bounded before the multiply, so a hostile one can neither
// wrap past the check nor write out of range.
func fill(data []byte, blocks ...BlockRecord) error {
	size := uint64(len(data))
	for _, b := range blocks {
		if b.Index > size/PageSize || b.Index*PageSize+uint64(len(b.Data)) > size {
			return fmt.Errorf("%w: block %d outside %d bytes", ErrSnapshotCorrupt, b.Index, size)
		}
		copy(data[b.Index*PageSize:], b.Data)
	}
	return nil
}

var zeroPage [PageSize]byte

func allZero(b []byte) bool {
	for len(b) >= PageSize {
		if !bytes.Equal(b[:PageSize], zeroPage[:]) {
			return false
		}
		b = b[PageSize:]
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
