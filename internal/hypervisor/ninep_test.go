package hypervisor

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vmsh/internal/fserr"
	"vmsh/internal/fsimage"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/vclock"
)

// TestNinePCostModel pins the exact virtual-time charges of the qemu-9p
// share: one protocol round trip per namespace op (failed ones too),
// free attribute and EOF reads, msize-capped data messages plus the
// server copy and host page-cache pages, the 64 MiB dirty throttle and
// writeback on Sync.
func TestNinePCostModel(t *testing.T) {
	h := hostsim.NewHost()
	fs := NewNinePFS(h)
	c := h.Costs
	root := fs.Root()

	charged := func(what string, want time.Duration, op func() error) {
		t.Helper()
		before := h.Clock.Now()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := h.Clock.Now() - before; got != want {
			t.Errorf("%s charged %v, want %v", what, got, want)
		}
	}
	// data is the charge of one successful read or write of n bytes.
	data := func(n int) time.Duration {
		msgs := (n + 64<<10 - 1) / (64 << 10)
		pages := (n + 4095) / 4096
		return time.Duration(msgs)*c.NinePOp + vclock.Copy(n, c.MemcpyBW) +
			time.Duration(pages)*c.PageCacheHit
	}
	writeback := func(n int) time.Duration {
		return vclock.DeviceTime(n, c.NVMeWriteLat, c.NVMeWriteBW, c.NVMeSegment, h.Disk.QueueDepth)
	}

	var f guestos.FSNode
	charged("create", c.NinePOp, func() (err error) {
		f, err = root.Create("f", 0o644, 0, 0)
		return err
	})
	charged("failed lookup", c.NinePOp, func() error {
		if _, err := root.Lookup("missing"); !errors.Is(err, fserr.ErrNotFound) {
			return fmt.Errorf("lookup of a missing name: %v", err)
		}
		return nil
	})
	charged("symlink (unsupported)", 0, func() error {
		if _, err := root.Symlink("s", "f", 0, 0); !errors.Is(err, fserr.ErrNotSupported) {
			return fmt.Errorf("symlink: %v", err)
		}
		return nil
	})
	charged("stat", 0, func() error { f.Stat(); return nil })
	charged("read at EOF", 0, func() error {
		n, err := f.ReadAt(make([]byte, 4096), 0)
		if n != 0 {
			return errors.New("read at EOF returned data")
		}
		return err
	})

	const chunk = 200 << 10
	buf := make([]byte, chunk)
	charged("200 KiB write", data(chunk), func() error {
		_, err := f.WriteAt(buf, 0)
		return err
	})
	charged("200 KiB read", data(chunk), func() error {
		n, err := f.ReadAt(buf, 0)
		if n != chunk {
			return errors.New("short read")
		}
		return err
	})

	// Dirty bytes now stand at 200 KiB; filling up to exactly 64 MiB
	// trips the host's writer throttle, which writes all of it back.
	fill := 64<<20 - chunk
	charged("throttled write", data(fill)+writeback(64<<20), func() error {
		_, err := f.WriteAt(make([]byte, fill), chunk)
		return err
	})

	charged("small write", data(10), func() error {
		_, err := f.WriteAt([]byte("0123456789"), 0)
		return err
	})
	charged("sync", c.NinePOp+writeback(10), func() error { return fs.Sync() })
	charged("clean sync", c.NinePOp, func() error { return fs.Sync() })
}

// TestNinePRenameKeepsNamespaceRules checks that renames through the 9p
// share follow POSIX: a directory cannot replace a file, and a
// non-empty directory cannot be replaced (its files would be lost).
func TestNinePRenameKeepsNamespaceRules(t *testing.T) {
	h := hostsim.NewHost()
	inst, err := Launch(h, Config{Kind: QEMU, RootFS: fsimage.GuestRoot("x"), NinePShare: true})
	if err != nil {
		t.Fatal(err)
	}
	p := inst.NewGuestProc("t")
	for _, d := range []string{"/mnt/9p/d", "/mnt/9p/e"} {
		if err := p.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"/mnt/9p/f", "/mnt/9p/d/g"} {
		if err := p.WriteFile(f, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if err := p.Rename("/mnt/9p/d", "/mnt/9p/f"); !errors.Is(err, fserr.ErrNotDir) {
		t.Errorf("rename dir onto file: %v, want ENOTDIR", err)
	}
	if err := p.Rename("/mnt/9p/e", "/mnt/9p/d"); !errors.Is(err, fserr.ErrNotEmpty) {
		t.Errorf("rename dir onto non-empty dir: %v, want ENOTEMPTY", err)
	}
	for _, f := range []string{"/mnt/9p/f", "/mnt/9p/d/g"} {
		if got, err := p.ReadFile(f); err != nil || string(got) != "keep" {
			t.Errorf("%s after failed renames: %q %v", f, got, err)
		}
	}
}
