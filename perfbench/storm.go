package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strings"
	"time"

	"vmsh"
)

// storm is a fleet storm shaped like E9. Each step is one round on a
// fresh 4-shard Fleet at 2 workers: every shard runs three 32 MiB VM
// lifecycles (launch, attach, two Execs, RAMHashes, detach, exit),
// even shards open with a two-VM net pair that pings across a switch,
// and each shard ends by posting a token to the next shard. A round's
// inputs come from one of stormConfigs seeded configurations; the
// run's seed picks their order. The held-out seed draws from a second
// set of stormConfigs configurations that no other seed runs. The
// round's determinism digest must equal the one recorded in digests.go
// for its configuration.
var stormWorkload = workload{setup: setupStorm, warmup: 1, window: 1, workers: stormWorkers}

const (
	stormShards   = 4
	stormWorkers  = 2
	stormPerShard = 3
	stormConfigs  = 32 // per set: one for tuning seeds, one for the held-out seed
	stormMemMiB   = 32
	stormImage    = "tools.img"
)

// stormConfigSeed is the input seed of round configuration c;
// configurations stormConfigs and up are the held-out set.
func stormConfigSeed(c int) int64 { return 9000 + int64(c)*7919 }

// stormOrder is the order in which a run with seed draws the round
// configurations: a permutation of the tuning set, or of the held-out
// set for the held-out seed.
func stormOrder(seed int64) []int {
	order := rand.New(rand.NewSource(seed)).Perm(stormConfigs)
	if seed == heldOutSeed {
		for i := range order {
			order[i] += stormConfigs
		}
	}
	return order
}

type storm struct {
	rec      *recorder
	parent   *vmsh.Lab
	template []byte // tool image bytes copied onto every shard
	order    []int  // round k runs configuration order[k % stormConfigs]
	window   map[string]float64
}

func setupStorm(seed int64, rec *recorder, _ string) (runner, error) {
	s := &storm{rec: rec, parent: vmsh.NewLab(), window: map[string]float64{}}
	s.parent.SetWorkers(stormWorkers)
	s.order = stormOrder(seed)
	// Build the tool image once and run one warm-up lifecycle on the
	// parent lab, so the first measured round starts warm.
	img, err := s.parent.BuildImage(stormImage, vmsh.ToolImage())
	if err != nil {
		return nil, err
	}
	s.template = img.Bytes()
	var acc vmAcc
	if err := s.lifecycle(s.parent, img, "warm", typicalKASLR, -1, -1, &acc); err != nil {
		return nil, fmt.Errorf("warm-up lifecycle: %w", err)
	}
	return s, nil
}

// vmAcc accumulates one shard's determinism fold and exact counts; only
// that shard's events write it.
type vmAcc struct {
	fold                uint64
	ops                 int
	procvm, bytes, irqs int64
	opsMS               []float64
	busy                time.Duration
	checkErr            error
}

func (a *vmAcc) add(h uint64) { a.fold = a.fold*1099511628211 + h }

// lifecycle runs one VM from launch to exit.
func (s *storm) lifecycle(lab *vmsh.Lab, img *vmsh.Image, name string, seed int64, op, parent int, acc *vmAcc) error {
	vm, sess, err := s.start(lab, img, nil, name, seed, op, parent)
	if err != nil {
		return err
	}
	return s.finish(lab, vm, sess, name, op, parent, acc)
}

// start launches and attaches one VM; sw, when non-nil, cables it
// into a switch.
func (s *storm) start(lab *vmsh.Lab, img *vmsh.Image, sw *vmsh.Switch, name string, seed int64, op, parent int) (*vmsh.VM, *vmsh.Session, error) {
	var vm *vmsh.VM
	err := s.rec.call("hypervisor.launch", parent, op, func() (err error) {
		vm, err = lab.LaunchVM(vmsh.WithHypervisor(vmsh.QEMU), vmsh.WithVMName(name),
			vmsh.WithKernelVersion("5.10"), vmsh.WithMemMiB(stormMemMiB), vmsh.WithVMSeed(seed),
			vmsh.WithRootFS(vmsh.GuestRoot(name)))
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("launch %s: %w", name, err)
	}
	opts := []vmsh.Option{vmsh.WithImage(img)}
	if sw != nil {
		opts = append(opts, vmsh.WithNet(sw))
	}
	var sess *vmsh.Session
	err = s.rec.call("core.attach", parent, op, func() (err error) {
		sess, err = lab.Attach(vm, opts...)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("attach %s: %w", name, err)
	}
	return vm, sess, nil
}

// finish runs the VM's commands, hashes its RAM, detaches and exits.
func (s *storm) finish(lab *vmsh.Lab, vm *vmsh.VM, sess *vmsh.Session, name string, op, parent int, acc *vmAcc) error {
	for _, c := range []struct{ cmd, want string }{
		{"ls /var/lib/vmsh/bin", "sh"},
		{"cat /var/lib/vmsh/etc/hostname", name},
	} {
		var out string
		err := s.rec.call("core.exec", parent, op, func() (err error) {
			out, err = sess.Exec(c.cmd)
			return err
		})
		if err != nil {
			return fmt.Errorf("exec %s: %w", name, err)
		}
		if !strings.Contains(out, c.want) && acc.checkErr == nil {
			acc.checkErr = fmt.Errorf("%s: %q printed %q, want %q", name, c.cmd, out, c.want)
		}
	}
	var hashes []uint64
	s.rec.call("core.ram_hashes", parent, op, func() error {
		hashes = sess.RAMHashes()
		return nil
	})
	for _, h := range hashes {
		acc.add(h)
	}
	st := sess.Stats()
	acc.ops++
	acc.procvm += st.ProcVMCalls
	acc.bytes += st.BytesRead + st.BytesWritten
	acc.irqs += st.Interrupts
	if err := s.rec.call("core.detach", parent, op, sess.Detach); err != nil {
		return fmt.Errorf("detach %s: %w", name, err)
	}
	s.rec.call("hostsim.exit", parent, op, func() error {
		lab.Host.Exit(vm.Proc)
		return nil
	})
	return nil
}

// netPair runs two lifecycles on one switch and pings both ways
// between them while both are attached.
func (s *storm) netPair(lab *vmsh.Lab, img *vmsh.Image, name string, seed int64, op, parent int, acc *vmAcc) error {
	sw := lab.NewSwitch()
	vms := make([]*vmsh.VM, 2)
	sessions := make([]*vmsh.Session, 2)
	for j := range vms {
		var err error
		vms[j], sessions[j], err = s.start(lab, img, sw, fmt.Sprintf("%s-n%d", name, j), seed+int64(j), op+j, parent)
		if err != nil {
			return err
		}
	}
	for j := range vms {
		ifc, ok := vms[j].Kernel.IfaceByName("vmsh0")
		peer, ok2 := vms[1-j].Kernel.IfaceByName("vmsh0")
		if !ok || !ok2 {
			return fmt.Errorf("%s-n%d: vmsh0 not registered", name, j)
		}
		var replied bool
		err := s.rec.call("guestos.ping", parent, op+j, func() (err error) {
			_, replied, err = ifc.Ping(peer.IP, uint16(j), 56)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s-n%d ping: %w", name, j, err)
		}
		if !replied && acc.checkErr == nil {
			acc.checkErr = fmt.Errorf("%s-n%d ping: no reply on a lossless link", name, j)
		}
	}
	for j := 1; j >= 0; j-- {
		if err := s.finish(lab, vms[j], sessions[j], fmt.Sprintf("%s-n%d", name, j), op+j, parent, acc); err != nil {
			return err
		}
	}
	return nil
}

// roundPlan is one shard's schedule in a round.
type roundPlan struct {
	stagger, spacing time.Duration
	netpair          bool
}

func planRound(cfgSeed int64) []roundPlan {
	plans := make([]roundPlan, stormShards)
	for i := range plans {
		rnd := rand.New(rand.NewSource(cfgSeed + int64(i)*7919))
		plans[i] = roundPlan{
			stagger: time.Duration(rnd.Intn(5000)) * time.Microsecond,
			spacing: time.Duration(50+rnd.Intn(100)) * time.Millisecond,
			netpair: i%2 == 0,
		}
	}
	return plans
}

func (s *storm) step(k int) segment {
	cfg := s.order[k%stormConfigs]
	digest, res, accs, err := s.round(cfg, k*stormShards*stormPerShard)
	res.attempted = stormShards * stormPerShard
	if err == nil {
		for _, a := range accs {
			if a.checkErr != nil {
				err = a.checkErr
				break
			}
		}
	}
	if err == nil && digest != stormDigests[cfg] {
		err = fmt.Errorf("round config %d: digest %s, recorded %s", cfg, digest, stormDigests[cfg])
	}
	if err != nil {
		logFailure("storm", err)
		res.failed = res.attempted
		res.opsMS = nil
		return res
	}
	if k == 0 {
		var ops int
		var procvm, bytes, irqs int64
		for _, a := range accs {
			ops += a.ops
			procvm += a.procvm
			bytes += a.bytes
			irqs += a.irqs
		}
		s.window["core.procvm_calls_per_op"] = float64(procvm) / float64(ops)
		s.window["core.bytes_per_op"] = float64(bytes) / float64(ops)
		s.window["virtio.irqs_per_op"] = float64(irqs) / float64(ops)
		s.window["vclock.vtime_us_per_op"] = float64(res.vtime.Microseconds()) / float64(ops)
	}
	return res
}

// round runs one configuration on a fresh fleet and returns its
// determinism digest (E9's fold: per-shard vtime and RAM hashes, the
// merged metrics text, event and message counts).
func (s *storm) round(cfg, opBase int) (string, segment, []*vmAcc, error) {
	var res segment
	cfgSeed := stormConfigSeed(cfg)
	root := s.rec.begin("engine.round", -1, -1)
	defer s.rec.end(root)
	f := s.parent.NewFleet(stormShards)
	eng := f.Engine()
	accs := make([]*vmAcc, stormShards)
	plans := planRound(cfgSeed)
	for i := 0; i < stormShards; i++ {
		i, p, acc := i, plans[i], &vmAcc{}
		accs[i] = acc
		lab := f.Lab(i)
		var img *vmsh.Image
		event := func(at time.Duration, name string, op, ops int, fn func(parent int) error) {
			eng.At(i, at, name, func(*vmsh.Shard) error {
				t := time.Now()
				id := s.rec.begin("engine.event", root, op)
				err := fn(id)
				s.rec.end(id)
				d := time.Since(t)
				acc.busy += d
				for j := 0; j < ops; j++ {
					acc.opsMS = append(acc.opsMS, float64(d)/1e6/float64(ops))
				}
				return err
			})
		}
		event(0, "image", -1, 0, func(parent int) error {
			return s.rec.call("hostsim.create_image", parent, -1, func() error {
				img = lab.Host.CreateFile(stormImage, int64(len(s.template)), false)
				copy(img.Bytes(), s.template)
				return nil
			})
		})
		name := fmt.Sprintf("s%d", i)
		op := opBase + i*stormPerShard
		for c := 0; c < stormPerShard; {
			at := p.stagger + time.Duration(c)*p.spacing
			vmSeed := cfgSeed + int64(i)*1000 + int64(c)
			if p.netpair && c == 0 {
				event(at, "netpair", op, 2, func(parent int) error {
					return s.netPair(lab, img, name, vmSeed, op, parent, acc)
				})
				c += 2
				continue
			}
			cop := op + c
			event(at, "cycle", cop, 1, func(parent int) error {
				return s.lifecycle(lab, img, name, vmSeed, cop, parent, acc)
			})
			c++
		}
		last := p.stagger + time.Duration(stormPerShard)*p.spacing
		event(last, "token-send", -1, 0, func(int) error {
			sh := eng.Shard(i)
			sh.Post((i+1)%stormShards, sh.Now(), "token", func(t *vmsh.Shard) error {
				t.Host().Metrics.Counter("perfbench.tokens").Inc()
				return nil
			})
			return nil
		})
	}

	stats, err := f.Run()
	if err != nil {
		return "", res, accs, err
	}
	res.runWall = stats.Wall
	dig := fnv.New64a()
	for i, vt := range f.VTimes() {
		fmt.Fprintf(dig, "%d:%d:%016x\n", i, vt, accs[i].fold)
		res.vtime += vt
	}
	dig.Write([]byte(f.Metrics().Text()))
	fmt.Fprintf(dig, "events=%d messages=%d\n", stats.Events, stats.Messages)
	for _, a := range accs {
		res.opsMS = append(res.opsMS, a.opsMS...)
		res.busy += a.busy
	}
	return fmt.Sprintf("%016x", dig.Sum64()), res, accs, nil
}

func (s *storm) counts() map[string]float64 { return s.window }

// digestsHeader opens the generated digests.go. Regenerate it only for
// a change meant to move virtual-time results; a change that only
// speeds up the simulator must leave every digest unchanged.
const digestsHeader = `// Code generated by perfbench -record-storm-digests. DO NOT EDIT.

package main

// stormDigests[c] is the determinism digest of storm round configuration c.
// Configurations stormConfigs and up are the held-out seed's.
var stormDigests = [2 * stormConfigs]string{
`

// writeStormDigests runs every round configuration once and writes
// digests.go.
func writeStormDigests(w io.Writer) error {
	r, err := setupStorm(1, newRecorder(), "")
	if err != nil {
		return err
	}
	s := r.(*storm)
	fmt.Fprint(w, digestsHeader)
	for c := 0; c < 2*stormConfigs; c++ {
		d, _, _, err := s.round(c, 0)
		if err != nil {
			return fmt.Errorf("round config %d: %w", c, err)
		}
		fmt.Fprintf(w, "\t%q,\n", d)
	}
	fmt.Fprintln(w, "}")
	return nil
}

func (s *storm) close() {}
