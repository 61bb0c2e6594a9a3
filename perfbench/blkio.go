package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"vmsh"
	"vmsh/internal/virtio"
	fio "vmsh/internal/workloads"
)

// blkio drives one long-lived attached VM. Each step is one
// queue-depth burst through the guest block driver on vmshblk0 (fast
// path). The request mix is that of the repository's fio suite for
// Figure 6 (workloads.StandardFigure6Specs): 4 KiB and 256 KiB
// requests, reads and writes, at queue depth 32, each kind drawn in
// proportion to the requests its fio job issues. Small requests go to
// random blocks, large ones stream sequentially. Every read checks the
// bytes against the pattern of the block's last write.
var blkioWorkload = workload{setup: setupBlkio, warmup: 256, window: blkWindow, workers: 1}

const (
	blkQD       = 32 // the queue depth of every Figure 6 job
	blkBlock    = 4096
	blkRegionLo = 16 << 20 // the working region stays clear of the image's filesystem
	blkRegion   = 32 << 20
	blkBlocks   = blkRegion / blkBlock
	blkPool     = 256 // distinct 4 KiB pattern blocks
	blkWindow   = 32  // steps the exact counts cover

	// blkHeldOutKASLR is the held-out seed's guest layout (142k attach
	// crossings, next to the median); attach is part of set-up only.
	blkHeldOutKASLR = 141
)

// blkKind is one request kind of the mix.
type blkKind struct {
	blocks int     // request size in blocks
	write  bool    // write, else read
	weight float64 // share of requests
}

// blkMix returns the Figure 6 request mix. A fio job moves Total bytes
// in BS-sized requests, so its share of requests is Total/BS over the
// sum for all jobs. The mix is fixed, so every seed does the same work
// per burst; the seed picks offsets and the order of kinds.
func blkMix() ([]blkKind, error) {
	var kinds []blkKind
	var sum float64
	for _, j := range fio.StandardFigure6Specs(1 << 30) {
		if j.QD != blkQD || j.BS%blkBlock != 0 {
			return nil, fmt.Errorf("fio job %s: QD %d, BS %d; want QD %d and whole blocks", j.Name, j.QD, j.BS, blkQD)
		}
		n := float64(j.Total / int64(j.BS))
		kinds = append(kinds, blkKind{blocks: j.BS / blkBlock, write: strings.HasSuffix(j.RW, "write"), weight: n})
		sum += n
	}
	for i := range kinds {
		kinds[i].weight /= sum
	}
	return kinds, nil
}

// largestKind is the size in blocks of the largest request of mix.
func largestKind(mix []blkKind) int {
	n := 0
	for _, k := range mix {
		n = max(n, k.blocks)
	}
	return n
}

// blkDevice is the batched guest block driver behind vmshblk0.
type blkDevice interface {
	SubmitBatch(reqs []virtio.BlkReq) error
	SetQueueDepth(qd int)
}

type blkio struct {
	lab     *vmsh.Lab
	vm      *vmsh.VM
	sess    *vmsh.Session
	dev     blkDevice
	rec     *recorder
	rnd     *rand.Rand
	mix     []blkKind
	large   int // blocks in the largest request
	seqNext int // next block of the sequential stream
	version []uint32
	pool    []byte
	bufs    [][]byte
	win     struct{ procvm, bytes, irqs, vtime int64 }
}

func setupBlkio(seed int64, rec *recorder, _ string) (runner, error) {
	b := &blkio{lab: vmsh.NewLab(), rec: rec, version: make([]uint32, blkBlocks)}
	var err error
	if b.mix, err = blkMix(); err != nil {
		return nil, err
	}
	b.large = largestKind(b.mix)
	b.rnd = rand.New(rand.NewSource(seed))
	b.pool = make([]byte, blkPool*blkBlock)
	b.rnd.Read(b.pool)
	for i := 0; i < blkQD; i++ {
		b.bufs = append(b.bufs, make([]byte, b.large*blkBlock))
	}

	kaslr := int64(typicalKASLR)
	if seed == heldOutSeed {
		kaslr = blkHeldOutKASLR
	}
	err = rec.call("hypervisor.launch", -1, -1, func() (err error) {
		b.vm, err = b.lab.LaunchVM(vmsh.WithHypervisor(vmsh.QEMU), vmsh.WithVMName("blkio"),
			vmsh.WithMemMiB(64), vmsh.WithVMSeed(kaslr))
		return err
	})
	if err != nil {
		return nil, err
	}
	img, err := b.lab.BuildImage("blkio.img", vmsh.Manifest{})
	if err != nil {
		return nil, err
	}
	if img.Size() < blkRegionLo+blkRegion {
		return nil, fmt.Errorf("image of %d bytes is smaller than the working region", img.Size())
	}
	err = rec.call("core.attach", -1, -1, func() (err error) {
		b.sess, err = b.lab.Attach(b.vm, vmsh.WithImage(img), vmsh.WithTrap(vmsh.TrapIoregionfd))
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := rec.call("core.exec", -1, -1, func() error {
		_, err := b.sess.Exec("ls /var/lib/vmsh")
		return err
	}); err != nil {
		return nil, err
	}
	d, ok := b.vm.GuestDisk("vmshblk0")
	if !ok {
		return nil, fmt.Errorf("vmshblk0 missing after attach")
	}
	if b.dev, ok = d.(blkDevice); !ok {
		return nil, fmt.Errorf("vmshblk0 is a %T, not the batched virtio-blk driver", d)
	}
	b.dev.SetQueueDepth(blkQD)
	// Fill the working region so every read has a known pattern.
	var reqs []virtio.BlkReq
	for blk := 0; blk < blkBlocks; blk += b.large {
		buf := b.bufs[len(reqs)]
		b.fill(buf, blk)
		reqs = append(reqs, virtio.BlkReq{Typ: virtio.BlkTOut, Off: blkOff(blk), Buf: buf})
		if len(reqs) == blkQD {
			if err := b.dev.SubmitBatch(reqs); err != nil {
				return nil, fmt.Errorf("preloading: %w", err)
			}
			reqs = reqs[:0]
		}
	}
	if len(reqs) > 0 {
		if err := b.dev.SubmitBatch(reqs); err != nil {
			return nil, fmt.Errorf("preloading: %w", err)
		}
	}
	return b, nil
}

func blkOff(blk int) int64 { return blkRegionLo + int64(blk)*blkBlock }

// pattern returns the bytes block blk holds at its current version:
// a pool block chosen by (block, version), stamped with both.
func (b *blkio) pattern(dst []byte, blk int) {
	v := b.version[blk]
	h := uint64(blk)*0x9e3779b97f4a7c15 ^ uint64(v)*0xbf58476d1ce4e5b9
	src := (h >> 17) % blkPool
	copy(dst, b.pool[src*blkBlock:(src+1)*blkBlock])
	binary.LittleEndian.PutUint32(dst, uint32(blk))
	binary.LittleEndian.PutUint32(dst[4:], v)
}

// fill writes the current pattern of the blocks starting at blk into
// buf.
func (b *blkio) fill(buf []byte, blk int) {
	for i := 0; i < len(buf)/blkBlock; i++ {
		b.pattern(buf[i*blkBlock:(i+1)*blkBlock], blk+i)
	}
}

// burst draws one queue-depth burst. No two requests of a burst touch
// the same block, so the outcome does not depend on service order
// within it.
func (b *blkio) burst() []virtio.BlkReq {
	used := map[int]bool{}
	free := func(blk, n int) bool {
		for i := 0; i < n; i++ {
			if used[blk+i] {
				return false
			}
		}
		return true
	}
	reqs := make([]virtio.BlkReq, 0, blkQD)
	for len(reqs) < blkQD {
		kind := b.draw()
		n := kind.blocks
		var blk int
		if n == 1 {
			blk = b.rnd.Intn(blkBlocks)
			for !free(blk, 1) {
				blk = b.rnd.Intn(blkBlocks)
			}
		} else {
			if b.seqNext+n > blkBlocks {
				b.seqNext = 0
			}
			blk = b.seqNext
			b.seqNext += n
			if !free(blk, n) {
				continue
			}
		}
		typ := uint32(virtio.BlkTIn)
		if kind.write {
			typ = virtio.BlkTOut
		}
		for i := 0; i < n; i++ {
			used[blk+i] = true
		}
		reqs = append(reqs, virtio.BlkReq{Typ: typ, Off: blkOff(blk), Buf: b.bufs[len(reqs)][:n*blkBlock]})
	}
	return reqs
}

// draw picks a request kind by its share of the mix.
func (b *blkio) draw() blkKind {
	x := b.rnd.Float64()
	for _, k := range b.mix {
		if x < k.weight {
			return k
		}
		x -= k.weight
	}
	return b.mix[len(b.mix)-1]
}

func (b *blkio) step(k int) segment {
	res := segment{attempted: 1}
	reqs := b.burst()
	for _, r := range reqs {
		if r.Typ == virtio.BlkTOut {
			blk := int((r.Off - blkRegionLo) / blkBlock)
			for i := 0; i < len(r.Buf)/blkBlock; i++ {
				b.version[blk+i]++
			}
			b.fill(r.Buf, blk)
		}
	}
	costs := b.lab.Costs()
	st0, v0 := b.sess.Stats(), b.lab.Clock().Now()
	op := b.rec.begin("op", -1, k)
	t := time.Now()
	// The guest pays its syscall and block-layer cost per request, as
	// the repository's fio workload does.
	for range reqs {
		b.lab.Clock().Advance(costs.GuestSyscall + costs.BlockLayerOp)
	}
	err := b.rec.call("virtio.submit_batch", op, k, func() error { return b.dev.SubmitBatch(reqs) })
	d := time.Since(t)
	b.rec.end(op)
	if err == nil {
		err = b.check(reqs)
	}
	st1 := b.sess.Stats()
	res.vtime = b.lab.Clock().Now() - v0
	if err != nil {
		logFailure("blkio", err)
		res.failed = 1
		return res
	}
	res.opsMS = []float64{float64(d) / 1e6}
	if k < blkWindow {
		b.win.procvm += st1.ProcVMCalls - st0.ProcVMCalls
		b.win.bytes += st1.BytesRead + st1.BytesWritten - st0.BytesRead - st0.BytesWritten
		b.win.irqs += st1.Interrupts - st0.Interrupts
		b.win.vtime += int64(res.vtime)
	}
	return res
}

// check compares every read of the burst with its blocks' patterns.
func (b *blkio) check(reqs []virtio.BlkReq) error {
	want := make([]byte, blkBlock)
	for _, r := range reqs {
		if r.Typ != virtio.BlkTIn {
			continue
		}
		blk := int((r.Off - blkRegionLo) / blkBlock)
		for i := 0; i < len(r.Buf)/blkBlock; i++ {
			b.pattern(want, blk+i)
			if !bytes.Equal(r.Buf[i*blkBlock:(i+1)*blkBlock], want) {
				return fmt.Errorf("block %d read back wrong bytes (version %d)", blk+i, b.version[blk+i])
			}
		}
	}
	return nil
}

func (b *blkio) counts() map[string]float64 {
	n := float64(blkWindow)
	return map[string]float64{
		"core.procvm_calls_per_op": float64(b.win.procvm) / n,
		"core.bytes_per_op":        float64(b.win.bytes) / n,
		"virtio.irqs_per_op":       float64(b.win.irqs) / n,
		"vclock.vtime_us_per_op":   float64(b.win.vtime) / 1e3 / n,
	}
}

func (b *blkio) close() {
	b.rec.call("core.detach", -1, -1, b.sess.Detach)
}
