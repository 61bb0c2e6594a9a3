// Snapshot file format: the shared checksum-chained line-JSON framing
// of internal/chainlog (magic "vmsh-snap", version 2) applied to
// whole-VM state. The header carries the label and capture vtime;
// every body line is a typed record ("t" field) and the last one is the
// footer with the per-memslot RAM hashes. Encoding the same Snapshot
// twice yields byte-identical output.
package lifecycle

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"vmsh/internal/chainlog"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/kvm"
	"vmsh/internal/virtio"
)

// Magic identifies a snapshot stream.
const Magic = "vmsh-snap"

// Version is the current snapshot format version.
const Version = 2

// Snapshot is a decoded whole-VM snapshot: enough to reconstruct the
// VM byte-for-byte on any simulated host. RAM and disk content are
// stored sparsely — only non-zero 4 KiB units — because Restore
// rebuilds onto zeroed backing.
type Snapshot struct {
	Label string
	// VTime is the source host's virtual time at capture.
	VTime int64
	// Config is the launch configuration (defaults applied); Restore
	// relaunches from it, which with the same Seed reproduces the
	// boot-time state deterministically.
	Config hypervisor.Config
	VCPUs  []VCPUState
	// Cursors carries the Go-side virtqueue cursors of every
	// hypervisor-owned disk; the ring bytes themselves are in Pages.
	Cursors []DiskCursors
	// Pages are the non-zero RAM pages per memslot.
	Pages []PageRecord
	// Disks are the sparse disk image contents.
	Disks []DiskImage
	// Session, when non-nil, describes the quiesced vmsh session that
	// was attached at capture; Restore re-attaches an equivalent one.
	Session *SessionState
	// RAMHashes is one FNV-64a hash per memslot (slot-number order),
	// cross-checked after Restore.
	RAMHashes []uint64
}

// VCPUState is one vCPU's register file.
type VCPUState struct {
	Index int          `json:"i"`
	Regs  hostsim.Regs `json:"regs"`
	Sregs kvm.Sregs    `json:"sregs"`
}

// DiskCursors pairs a disk's driver- and device-side queue cursors.
type DiskCursors struct {
	Disk string             `json:"disk"`
	Drv  virtio.CursorState `json:"drv"`
	Dev  virtio.CursorState `json:"dev"`
}

// PageRecord is one non-zero 4 KiB RAM page.
type PageRecord struct {
	Slot  uint32 `json:"slot"`
	Index uint64 `json:"idx"`
	Data  []byte `json:"data"`
}

// BlockRecord is one non-zero 4 KiB disk block.
type BlockRecord struct {
	Index uint64 `json:"idx"`
	Data  []byte `json:"data"`
}

// DiskImage is one disk's sparse content.
type DiskImage struct {
	Name   string
	Size   int64
	Blocks []BlockRecord
}

// SessionState describes a quiesced vmsh session: what it served and
// how it was attached, plus the overlay image's content so Restore can
// materialise it on the target host.
type SessionState struct {
	ImageName string
	ImageSize int64
	Storage   string
	Trap      int
	Blocks    []BlockRecord
}

// snapHeader is the header's members after magic and version.
type snapHeader struct {
	Label string `json:"label"`
	VTime int64  `json:"vtime"`
}

// snapLine is the union wire record of body lines; "t" selects the
// populated arm.
type snapLine struct {
	T string `json:"t"`

	// config
	Config *hypervisor.Config `json:"config,omitempty"`

	// vcpu
	VCPU *VCPUState `json:"vcpu,omitempty"`

	// cursors
	Cursors *DiskCursors `json:"cursors,omitempty"`

	// page / block / simage payload
	Slot  uint32 `json:"slot,omitempty"`
	Index uint64 `json:"idx,omitempty"`
	Data  []byte `json:"data,omitempty"`

	// disk (block container) / session
	Disk    string `json:"disk,omitempty"`
	Size    int64  `json:"size,omitempty"`
	Image   string `json:"image,omitempty"`
	Storage string `json:"storage,omitempty"`
	Trap    int    `json:"trap,omitempty"`

	// footer
	RAMHashes []uint64 `json:"ram,omitempty"`
}

// WriteTo encodes the snapshot in canonical form. It implements
// io.WriterTo.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	hdr, err := json.Marshal(snapHeader{Label: s.Label, VTime: s.VTime})
	if err != nil {
		return 0, err
	}
	cfg := s.Config
	lines := []snapLine{{T: "config", Config: &cfg}}
	for i := range s.VCPUs {
		lines = append(lines, snapLine{T: "vcpu", VCPU: &s.VCPUs[i]})
	}
	for i := range s.Cursors {
		lines = append(lines, snapLine{T: "cursors", Cursors: &s.Cursors[i]})
	}
	for _, p := range s.Pages {
		lines = append(lines, snapLine{T: "page", Slot: p.Slot, Index: p.Index, Data: p.Data})
	}
	for _, d := range s.Disks {
		lines = append(lines, snapLine{T: "disk", Disk: d.Name, Size: d.Size})
		for _, b := range d.Blocks {
			lines = append(lines, snapLine{T: "block", Disk: d.Name, Index: b.Index, Data: b.Data})
		}
	}
	if ss := s.Session; ss != nil {
		lines = append(lines, snapLine{T: "session", Image: ss.ImageName, Size: ss.ImageSize, Storage: ss.Storage, Trap: ss.Trap})
		for _, b := range ss.Blocks {
			lines = append(lines, snapLine{T: "simage", Index: b.Index, Data: b.Data})
		}
	}
	lines = append(lines, snapLine{T: "footer", RAMHashes: s.RAMHashes})

	cw, err := chainlog.NewWriter(w, Magic, Version, hdr)
	for i := 0; err == nil && i < len(lines); i++ {
		var b []byte
		if b, err = json.Marshal(lines[i]); err == nil {
			err = cw.Line(b)
		}
	}
	n, ferr := cw.Flush()
	if err == nil {
		err = ferr
	}
	return n, err
}

// Read decodes and integrity-checks a snapshot stream. A magic or
// version mismatch returns a plain error (the caller has the wrong
// kind of file); framing damage (see chainlog) and an out-of-place
// record wrap ErrSnapshotCorrupt.
func Read(r io.Reader) (*Snapshot, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
	}
	s := &Snapshot{}
	diskByName := map[string]int{}
	hdr, err := chainlog.Read(r, Magic, Version, func(b []byte) (bool, error) {
		var l snapLine
		if err := json.Unmarshal(b, &l); err != nil {
			return false, corrupt("%v", err)
		}
		switch l.T {
		case "config":
			if l.Config == nil {
				return false, corrupt("config record without payload")
			}
			s.Config = *l.Config
		case "vcpu":
			if l.VCPU == nil {
				return false, corrupt("vcpu record without payload")
			}
			s.VCPUs = append(s.VCPUs, *l.VCPU)
		case "cursors":
			if l.Cursors == nil {
				return false, corrupt("cursors record without payload")
			}
			s.Cursors = append(s.Cursors, *l.Cursors)
		case "page":
			s.Pages = append(s.Pages, PageRecord{Slot: l.Slot, Index: l.Index, Data: l.Data})
		case "disk":
			diskByName[l.Disk] = len(s.Disks)
			s.Disks = append(s.Disks, DiskImage{Name: l.Disk, Size: l.Size})
		case "block":
			i, ok := diskByName[l.Disk]
			if !ok {
				return false, corrupt("block for undeclared disk %q", l.Disk)
			}
			s.Disks[i].Blocks = append(s.Disks[i].Blocks, BlockRecord{Index: l.Index, Data: l.Data})
		case "session":
			s.Session = &SessionState{ImageName: l.Image, ImageSize: l.Size, Storage: l.Storage, Trap: l.Trap}
		case "simage":
			if s.Session == nil {
				return false, corrupt("simage block before session record")
			}
			s.Session.Blocks = append(s.Session.Blocks, BlockRecord{Index: l.Index, Data: l.Data})
		case "footer":
			s.RAMHashes = l.RAMHashes
			return true, nil
		default:
			return false, corrupt("unknown record type %q", l.T)
		}
		return false, nil
	})
	var ce *chainlog.Error
	if errors.As(err, &ce) {
		return nil, fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	if err != nil {
		return nil, err
	}
	var h snapHeader
	if err := json.Unmarshal(hdr, &h); err != nil {
		return nil, corrupt("bad header: %v", err)
	}
	s.Label, s.VTime = h.Label, h.VTime
	return s, nil
}
