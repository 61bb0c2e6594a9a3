package lifecycle

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vmsh/internal/chainlog"
	"vmsh/internal/chainlog/chainlogtest"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
)

// sampleSnapshot is a small snapshot touching every record type.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Label:  "sample",
		VTime:  123456,
		Config: hypervisor.Config{Kind: hypervisor.QEMU, Name: "sample", KernelVersion: "5.10", RAMSize: 32 << 20, VCPUs: 1, Seed: 9},
		VCPUs:  []VCPUState{{Index: 0, Regs: hostsim.Regs{RIP: 0xffffffff81000000, RSP: 0x8000}}},
		Pages: []PageRecord{
			{Slot: 0, Index: 3, Data: []byte("page three")},
			{Slot: 0, Index: 9, Data: []byte{1, 2, 3}},
		},
		Disks: []DiskImage{{Name: "vda", Size: 1 << 20, Blocks: []BlockRecord{{Index: 1, Data: []byte("block one")}}}},
		Session: &SessionState{ImageName: "tools.img", ImageSize: 1 << 20, Storage: "memory", Trap: 1,
			Blocks: []BlockRecord{{Index: 0, Data: []byte("superblock")}}},
		RAMHashes: []uint64{0xdeadbeef, 0x12345678},
	}
}

func encodeSnapshot(s *Snapshot) []byte {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func reencodeSnapshot(b []byte) ([]byte, error) {
	s, err := Read(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return encodeSnapshot(s), nil
}

// TestSnapshotCorruptionDiagnosed: framing damage of every kind maps
// onto ErrSnapshotCorrupt, through the contract shared with replay logs.
func TestSnapshotCorruptionDiagnosed(t *testing.T) {
	var skew bytes.Buffer
	cw, _ := chainlog.NewWriter(&skew, Magic, Version+1, []byte(`{}`))
	_ = cw.Line([]byte(`{"t":"footer"}`))
	_, _ = cw.Flush()
	chainlogtest.Run(t, chainlogtest.Codec{
		Sample:   encodeSnapshot(sampleSnapshot()),
		Skew:     skew.Bytes(),
		Reencode: reencodeSnapshot,
		Corrupt:  func(err error) bool { return errors.Is(err, ErrSnapshotCorrupt) },
	})
}

// TestSnapshotGolden pins the v2 wire format: the sample snapshot must
// encode to exactly the committed bytes (regenerate with
// SNAPSHOT_WRITE_GOLDEN=1).
func TestSnapshotGolden(t *testing.T) {
	golden := filepath.Join("testdata", "golden_v2.snap")
	if os.Getenv("SNAPSHOT_WRITE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, encodeSnapshot(sampleSnapshot()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden snapshot: %v", err)
	}
	if got := encodeSnapshot(sampleSnapshot()); !bytes.Equal(got, want) {
		t.Fatalf("sample snapshot no longer encodes to the golden bytes:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRestoreRejectsHostileIndices: out-of-range or wrapping indices
// and sizes in a decoded snapshot are corruption, never a panic or a
// silent write at the wrong offset.
func TestRestoreRejectsHostileIndices(t *testing.T) {
	h := hostsim.NewHost()
	base, err := Take(launch(t, h, "hostile", 45), TakeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	const wrap = 1 << 52 // wrap * PageSize overflows uint64 to 0
	cases := []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"simage block past image end", func(s *Snapshot) {
			s.Session = &SessionState{ImageName: "s.img", ImageSize: PageSize, Blocks: []BlockRecord{{Index: 5, Data: make([]byte, PageSize)}}}
		}},
		{"negative session image size", func(s *Snapshot) {
			s.Session = &SessionState{ImageName: "s.img", ImageSize: -1}
		}},
		{"wrapping page index", func(s *Snapshot) {
			s.Pages = append(s.Pages, PageRecord{Slot: s.Pages[0].Slot, Index: wrap + 1, Data: []byte{1}})
		}},
		{"wrapping disk block index", func(s *Snapshot) {
			s.Disks[0].Blocks = append(s.Disks[0].Blocks, BlockRecord{Index: wrap, Data: []byte{1}})
		}},
		{"negative vcpu index", func(s *Snapshot) {
			s.VCPUs = append(s.VCPUs, VCPUState{Index: -1})
		}},
		{"disk image for unknown disk", func(s *Snapshot) {
			s.Disks = append(s.Disks, DiskImage{Name: "vdz", Size: PageSize})
		}},
		{"cursors for unknown disk", func(s *Snapshot) {
			s.Cursors = append(s.Cursors, DiskCursors{Disk: "vdz"})
		}},
		{"ram hash count differs from memslots", func(s *Snapshot) {
			s.RAMHashes = nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Read(bytes.NewReader(encodeSnapshot(base)))
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(s)
			if _, _, err := Restore(hostsim.NewHost(), s, RestoreOpts{}); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("want ErrSnapshotCorrupt, got %v", err)
			}
		})
	}
}

// FuzzSnapshotRead: Read never panics on arbitrary bytes (snapshot and
// migration streams are untrusted input), and anything it accepts
// re-encodes to a stream that reads back and re-encodes identically.
func FuzzSnapshotRead(f *testing.F) {
	f.Add(encodeSnapshot(sampleSnapshot()))
	f.Add(encodeSnapshot(&Snapshot{}))
	f.Add([]byte(`{"magic":"vmsh-snap","v":1,"label":"","vtime":0}` + "\n"))
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := encodeSnapshot(s)
		again, err := reencodeSnapshot(first)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		if !bytes.Equal(first, again) {
			t.Fatal("re-read snapshot re-encodes differently")
		}
	})
}
