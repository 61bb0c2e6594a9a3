package hypervisor

import (
	"time"

	"vmsh/internal/fserr"
	"vmsh/internal/guestos"
	"vmsh/internal/hostsim"
	"vmsh/internal/simplefs"
	"vmsh/internal/storage"
	"vmsh/internal/vclock"
)

// NinePFS models QEMU's virtio-9p host directory share: a host
// directory whose files live in the *host* page cache, reached through
// a per-operation protocol round trip. Stacking the guest page cache
// (the VFS layer adds it) on top of the host's is what makes qemu-9p's
// IOPS collapse in Figure 6b. The namespace itself is a storage.MemFS;
// this type adds only the 9p charges.
type NinePFS struct {
	*storage.MemFS
	host *hostsim.Host
	// dirtyBytes tracks data sitting in the host page cache awaiting
	// writeback to the actual disk.
	dirtyBytes int
}

// NewNinePFS creates an empty share.
func NewNinePFS(h *hostsim.Host) *NinePFS {
	return &NinePFS{
		MemFS: storage.NewMemFS(storage.MemOptions{Blocks: 1 << 24, Inodes: 1 << 20}),
		host:  h,
	}
}

// charge accounts one 9p message round trip.
func (fs *NinePFS) charge() {
	c := fs.host.Costs
	fs.host.Clock.Advance(c.NinePOp)
}

// chargeData accounts payload traffic: protocol messages are capped at
// msize (64 KiB), and every byte crosses the host page cache.
func (fs *NinePFS) chargeData(n int) {
	const msize = 64 * 1024
	msgs := (n + msize - 1) / msize
	if msgs < 1 {
		msgs = 1
	}
	c := fs.host.Costs
	fs.host.Clock.Advance(time0(c.NinePOp, msgs))
	fs.host.Clock.Advance(vclock.Copy(n, c.MemcpyBW)) // server-side copy
	pages := (n + 4095) / 4096
	fs.host.Clock.Advance(time0(c.PageCacheHit, pages)) // host page cache
}

// Root implements guestos.FileSystem, wrapping nodes so every protocol
// operation is charged.
func (fs *NinePFS) Root() guestos.FSNode {
	return ninePNode{Node: fs.MemFS.Root(), fs: fs}
}

// Sync implements guestos.FileSystem; host-side fsync writes the
// dirty host page cache back to the device.
func (fs *NinePFS) Sync() error {
	fs.charge()
	if fs.dirtyBytes > 0 {
		fs.host.Disk.ChargeWrite(fs.dirtyBytes)
		fs.dirtyBytes = 0
	}
	return nil
}

// QuotaReport implements guestos.FileSystem.
func (fs *NinePFS) QuotaReport() ([]simplefs.QuotaUsage, error) {
	return nil, fserr.ErrNotSupported
}

// ReadAheadPages caps the guest readahead window at one page: the v9fs
// client of this kernel era issues a protocol round trip per page,
// which is the "two stacked file systems" cost of §6.3-C.
func (fs *NinePFS) ReadAheadPages() int64 { return 1 }

// ninePNode decorates a MemFS node: every protocol operation pays one
// round trip up front, even when it then fails; attributes are cached
// client-side (cache=loose), so Stat and Readlink are free.
type ninePNode struct {
	storage.Node
	fs *NinePFS
}

func (n ninePNode) wrap(inner guestos.FSNode, err error) (guestos.FSNode, error) {
	if err != nil {
		return nil, err
	}
	return ninePNode{Node: inner, fs: n.fs}, nil
}

func (n ninePNode) Lookup(name string) (guestos.FSNode, error) {
	n.fs.charge()
	return n.wrap(n.Node.Lookup(name))
}

func (n ninePNode) Create(name string, perm, uid, gid uint32) (guestos.FSNode, error) {
	n.fs.charge()
	return n.wrap(n.Node.Create(name, perm, uid, gid))
}

func (n ninePNode) Mkdir(name string, perm, uid, gid uint32) (guestos.FSNode, error) {
	n.fs.charge()
	return n.wrap(n.Node.Mkdir(name, perm, uid, gid))
}

// Symlink and Link are not modelled by this share.
func (n ninePNode) Symlink(name, target string, uid, gid uint32) (guestos.FSNode, error) {
	return nil, fserr.ErrNotSupported
}
func (n ninePNode) Link(t guestos.FSNode, name string) error { return fserr.ErrNotSupported }

func (n ninePNode) Unlink(name string) error {
	n.fs.charge()
	return n.Node.Unlink(name)
}

func (n ninePNode) Rmdir(name string) error {
	n.fs.charge()
	return n.Node.Rmdir(name)
}

func (n ninePNode) Rename(oldName string, dst guestos.FSNode, newName string) error {
	n.fs.charge()
	if d, ok := dst.(ninePNode); ok {
		dst = d.Node
	}
	return n.Node.Rename(oldName, dst, newName)
}

func (n ninePNode) ReadDir() ([]simplefs.DirEntry, error) {
	n.fs.charge()
	return n.Node.ReadDir()
}

// ReadAt charges the payload of every read below EOF; a read at or
// past EOF is answered from the client's cached size.
func (n ninePNode) ReadAt(buf []byte, off int64) (int, error) {
	nn, err := n.Node.ReadAt(buf, off)
	if err == nil && off < n.Stat().Size {
		n.fs.chargeData(nn)
	}
	return nn, err
}

func (n ninePNode) WriteAt(buf []byte, off int64) (int, error) {
	nn, err := n.Node.WriteAt(buf, off)
	if err != nil {
		return nn, err
	}
	n.fs.chargeData(nn)
	n.fs.dirtyBytes += nn
	// The host kernel throttles writers once too much is dirty.
	if n.fs.dirtyBytes >= 64<<20 {
		n.fs.host.Disk.ChargeWrite(n.fs.dirtyBytes)
		n.fs.dirtyBytes = 0
	}
	return nn, nil
}

func (n ninePNode) Truncate(size int64) error {
	n.fs.charge()
	return n.Node.Truncate(size)
}

func (n ninePNode) Chmod(perm uint32) error {
	n.fs.charge()
	return n.Node.Chmod(perm)
}

func (n ninePNode) Chown(uid, gid uint32) error {
	n.fs.charge()
	return n.Node.Chown(uid, gid)
}

func (n ninePNode) SetTimes(a, m uint64) error {
	n.fs.charge()
	return n.Node.SetTimes(a, m)
}

// time0 multiplies a duration by a count.
func time0(d time.Duration, n int) time.Duration { return d * time.Duration(n) }
