// Command benchdiff compares two committed benchmark artifacts
// (BENCH_e5.json / BENCH_e9.json style documents) metric by metric and
// exits non-zero when the new artifact regressed past a percentage
// threshold — the CI gate over the bench trajectory.
//
//	benchdiff [-threshold 0] baseline.json candidate.json
//
// Compared metrics are the deterministic virtual-time ones only: the
// E5 fast-path counters (virtual time, process_vm calls, interrupts,
// bytes moved per mode), the E9 fleet results (events, messages,
// max vtime, per-shard vtimes, and the determinism digest, which must
// match exactly at any threshold) and the E11
// migration sweep (downtime, total time, pages and bytes on the wire
// per mode × dirty rate, plus the hash-equality / session-survival /
// record-verify booleans, which regress at any threshold when lost).
// Wall-clock-derived
// numbers (events/sec, wall_ms, speedup) are never compared — they
// measure the CI machine, not the code. E9 documents are compared only
// when (vms, shards, seed) match; otherwise the comparison is skipped
// with a note, since different configurations legitimately produce
// different results.
//
// A metric counts as a regression when it grew more than threshold%
// (all compared metrics are costs: virtual time, crossings,
// interrupts). Shrinkage is reported as an improvement and passes.
// With the default threshold 0 the gate demands bit-identical
// deterministic metrics — the property the simulation guarantees.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// e5Mode mirrors the eval.FastPathMode fields benchdiff compares
// (default Go JSON field names; extra fields are ignored).
type e5Mode struct {
	Name        string `json:"Name"`
	VirtualTime int64  `json:"VirtualTime"`
	ProcVMCalls int64  `json:"ProcVMCalls"`
	Interrupts  int64  `json:"Interrupts"`
	BytesMoved  int64  `json:"BytesMoved"`
}

// e1Row mirrors eval.XfstestsBackendRow: one xfstests environment's
// pass/fail/skip counts (BENCH_e1.json). Counts are deterministic, so
// they are always compared bit-identically regardless of -threshold —
// a backend that starts failing tests is a regression at any size.
type e1Row struct {
	Env     string `json:"env"`
	Total   int    `json:"total"`
	Passed  int    `json:"passed"`
	Failed  int    `json:"failed"`
	Skipped int    `json:"skipped"`
}

// fleetRun mirrors eval.FleetStormRun's deterministic fields.
type fleetRun struct {
	Workers    int     `json:"workers"`
	Events     int64   `json:"events"`
	Messages   int64   `json:"messages"`
	MaxVTimeMS float64 `json:"max_vtime_ms"`
	Digest     string  `json:"digest"`
}

// fleetDoc mirrors eval.FleetStormResult's deterministic fields.
type fleetDoc struct {
	SchemaVersion int        `json:"schema_version"`
	VMs           int        `json:"vms"`
	Shards        int        `json:"shards"`
	Seed          int64      `json:"seed"`
	Runs          []fleetRun `json:"runs"`
	VTimesMS      []float64  `json:"vtimes_ms"`
	Deterministic *bool      `json:"deterministic"`
}

// e11Leg mirrors eval.MigrationLeg's deterministic fields: one
// migration of the E11 sweep (BENCH_e11.json).
type e11Leg struct {
	Mode          string `json:"mode"`
	DirtyPages    int    `json:"dirty_pages_per_round"`
	PrecopyRounds int    `json:"precopy_rounds"`
	DowntimeNS    int64  `json:"downtime_ns"`
	TotalNS       int64  `json:"total_ns"`
	PagesPrecopy  int    `json:"pages_precopy"`
	PagesCutover  int    `json:"pages_cutover"`
	PagesFaulted  int    `json:"pages_faulted"`
	PagesDrained  int    `json:"pages_drained"`
	BytesOnWire   int64  `json:"bytes_on_wire"`
	HashesEqual   bool   `json:"hashes_equal"`
}

// e11Doc mirrors eval.MigrationResult.
type e11Doc struct {
	SchemaVersion       int      `json:"schema_version"`
	Seed                int64    `json:"seed"`
	Legs                []e11Leg `json:"legs"`
	SessionSurvived     bool     `json:"session_survived"`
	SessionFaultedPages int      `json:"session_faulted_pages"`
	RecordVerified      bool     `json:"record_verified"`
	RecordCrossings     int      `json:"record_crossings"`
}

// benchFile is the union shape of every artifact benchdiff accepts:
// a vmsh-bench -json document (fast_path, fleet and/or migration
// inside), a bare -fleet-json document (fleet fields at top level),
// or a bare -migrate-json document (migration legs at top level).
type benchFile struct {
	FastPath  []e5Mode  `json:"fast_path"`
	Fleet     *fleetDoc `json:"fleet"`
	Xfstests  []e1Row   `json:"xfstests"`
	Migration *e11Doc   `json:"migration"`
	top       fleetDoc  // top-level fleet fields (BENCH_e9.json)
	topMig    e11Doc    // top-level migration fields (BENCH_e11.json)
}

func (b *benchFile) fleet() *fleetDoc {
	if b.Fleet != nil {
		return b.Fleet
	}
	if len(b.top.Runs) > 0 {
		return &b.top
	}
	return nil
}

func (b *benchFile) migration() *e11Doc {
	if b.Migration != nil {
		return b.Migration
	}
	if len(b.topMig.Legs) > 0 {
		return &b.topMig
	}
	return nil
}

// report accumulates the comparison outcome.
type report struct {
	regressions []string
	notes       []string
}

func (r *report) regress(format string, args ...any) {
	r.regressions = append(r.regressions, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// cmp checks one cost metric: growth beyond thresholdPct is a
// regression, shrinkage an improvement note, equality silent.
func (r *report) cmp(name string, oldV, newV float64, thresholdPct float64) {
	if oldV == newV {
		return
	}
	if oldV == 0 {
		r.regress("%s: baseline 0, candidate %v", name, newV)
		return
	}
	deltaPct := 100 * (newV - oldV) / oldV
	switch {
	case deltaPct > thresholdPct:
		r.regress("%s: %v -> %v (%+.2f%% > %.2f%% threshold)", name, oldV, newV, deltaPct, thresholdPct)
	case deltaPct < 0:
		r.note("%s improved: %v -> %v (%+.2f%%)", name, oldV, newV, deltaPct)
	default:
		r.note("%s: %v -> %v (%+.2f%%, within threshold)", name, oldV, newV, deltaPct)
	}
}

// diff compares baseline and candidate documents.
func diff(oldDoc, newDoc *benchFile, thresholdPct float64) *report {
	r := &report{}
	compared := false

	if len(oldDoc.FastPath) > 0 {
		newModes := make(map[string]e5Mode, len(newDoc.FastPath))
		for _, m := range newDoc.FastPath {
			newModes[m.Name] = m
		}
		for _, om := range oldDoc.FastPath {
			nm, ok := newModes[om.Name]
			if !ok {
				r.regress("e5 mode %q missing from candidate", om.Name)
				continue
			}
			compared = true
			pfx := "e5." + om.Name
			r.cmp(pfx+".virtual_time_ns", float64(om.VirtualTime), float64(nm.VirtualTime), thresholdPct)
			r.cmp(pfx+".procvm_calls", float64(om.ProcVMCalls), float64(nm.ProcVMCalls), thresholdPct)
			r.cmp(pfx+".interrupts", float64(om.Interrupts), float64(nm.Interrupts), thresholdPct)
			r.cmp(pfx+".bytes_moved", float64(om.BytesMoved), float64(nm.BytesMoved), thresholdPct)
		}
	}

	if len(oldDoc.Xfstests) > 0 {
		newEnvs := make(map[string]e1Row, len(newDoc.Xfstests))
		for _, row := range newDoc.Xfstests {
			newEnvs[row.Env] = row
		}
		for _, or := range oldDoc.Xfstests {
			nr, ok := newEnvs[or.Env]
			if !ok {
				r.regress("e1 env %q missing from candidate", or.Env)
				continue
			}
			compared = true
			if or != nr {
				r.regress("e1 env %q changed: %d/%d/%d/%d (total/passed/failed/skipped) -> %d/%d/%d/%d",
					or.Env, or.Total, or.Passed, or.Failed, or.Skipped,
					nr.Total, nr.Passed, nr.Failed, nr.Skipped)
			}
		}
	}

	of, nf := oldDoc.fleet(), newDoc.fleet()
	switch {
	case of != nil && nf == nil:
		r.regress("e9 fleet document missing from candidate")
	case of != nil && nf != nil:
		if of.VMs != nf.VMs || of.Shards != nf.Shards || of.Seed != nf.Seed {
			r.note("e9 skipped: configurations differ (vms/shards/seed %d/%d/%d vs %d/%d/%d)",
				of.VMs, of.Shards, of.Seed, nf.VMs, nf.Shards, nf.Seed)
			break
		}
		compared = true
		if nf.Deterministic != nil && !*nf.Deterministic {
			r.regress("e9 candidate reports deterministic=false")
		}
		// All runs of one doc share a digest (enforced at generation
		// time); compare the sweep's shared deterministic results once.
		if len(of.Runs) > 0 && len(nf.Runs) > 0 {
			o0, n0 := of.Runs[0], nf.Runs[0]
			r.cmp("e9.events", float64(o0.Events), float64(n0.Events), thresholdPct)
			r.cmp("e9.messages", float64(o0.Messages), float64(n0.Messages), thresholdPct)
			r.cmp("e9.max_vtime_ms", o0.MaxVTimeMS, n0.MaxVTimeMS, thresholdPct)
			if o0.Digest != n0.Digest {
				// The digest covers vtimes, RAM hashes and metrics, and
				// the configuration is identical, so any change is a
				// behaviour change: regenerate the baseline if intended.
				r.regress("e9 digest changed: %s -> %s", o0.Digest, n0.Digest)
			}
		}
		if len(of.VTimesMS) > 0 && len(nf.VTimesMS) > 0 {
			if len(of.VTimesMS) != len(nf.VTimesMS) {
				r.regress("e9 vtimes: shard count %d -> %d", len(of.VTimesMS), len(nf.VTimesMS))
			} else {
				for i := range of.VTimesMS {
					r.cmp(fmt.Sprintf("e9.vtime_ms[shard %d]", i), of.VTimesMS[i], nf.VTimesMS[i], thresholdPct)
				}
			}
		}
	}

	om, nm := oldDoc.migration(), newDoc.migration()
	switch {
	case om != nil && nm == nil:
		r.regress("e11 migration document missing from candidate")
	case om != nil && nm != nil:
		if om.Seed != nm.Seed {
			r.note("e11 skipped: seeds differ (%d vs %d)", om.Seed, nm.Seed)
			break
		}
		compared = true
		// Booleans are correctness, not cost: losing one is a
		// regression at any threshold.
		if om.SessionSurvived && !nm.SessionSurvived {
			r.regress("e11 candidate: session no longer survives migration")
		}
		if om.RecordVerified && !nm.RecordVerified {
			r.regress("e11 candidate: recorded session no longer verifies on destination")
		}
		newLegs := make(map[string]e11Leg, len(nm.Legs))
		for _, l := range nm.Legs {
			newLegs[fmt.Sprintf("%s/%d", l.Mode, l.DirtyPages)] = l
		}
		for _, ol := range om.Legs {
			key := fmt.Sprintf("%s/%d", ol.Mode, ol.DirtyPages)
			nl, ok := newLegs[key]
			if !ok {
				r.regress("e11 leg %q missing from candidate", key)
				continue
			}
			if ol.PrecopyRounds != nl.PrecopyRounds {
				r.note("e11 leg %q skipped: pre-copy rounds differ (%d vs %d)",
					key, ol.PrecopyRounds, nl.PrecopyRounds)
				continue
			}
			if !nl.HashesEqual {
				r.regress("e11 leg %q: RAM hashes diverged", key)
			}
			pfx := "e11." + key
			r.cmp(pfx+".downtime_ns", float64(ol.DowntimeNS), float64(nl.DowntimeNS), thresholdPct)
			r.cmp(pfx+".total_ns", float64(ol.TotalNS), float64(nl.TotalNS), thresholdPct)
			r.cmp(pfx+".pages_on_wire",
				float64(ol.PagesPrecopy+ol.PagesCutover+ol.PagesFaulted+ol.PagesDrained),
				float64(nl.PagesPrecopy+nl.PagesCutover+nl.PagesFaulted+nl.PagesDrained), thresholdPct)
			r.cmp(pfx+".bytes_on_wire", float64(ol.BytesOnWire), float64(nl.BytesOnWire), thresholdPct)
		}
	}

	if !compared && len(r.regressions) == 0 {
		r.note("no comparable metrics found (empty or mismatched artifacts)")
	}
	return r
}

func load(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// Bare -fleet-json / -migrate-json documents carry their fields at
	// top level; decode those separately.
	var top fleetDoc
	if err := json.Unmarshal(raw, &top); err == nil && len(top.Runs) > 0 {
		doc.top = top
	}
	var topMig e11Doc
	if err := json.Unmarshal(raw, &topMig); err == nil && len(topMig.Legs) > 0 {
		doc.topMig = topMig
	}
	return &doc, nil
}

func main() {
	threshold := flag.Float64("threshold", 0, "allowed growth per metric in percent before failing")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold pct] baseline.json candidate.json")
		os.Exit(2)
	}
	oldDoc, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newDoc, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	r := diff(oldDoc, newDoc, *threshold)
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, reg := range r.regressions {
		fmt.Println("REGRESSION:", reg)
	}
	if len(r.regressions) > 0 {
		fmt.Printf("benchdiff: %d regression(s) vs %s\n", len(r.regressions), flag.Arg(0))
		os.Exit(1)
	}
	fmt.Printf("benchdiff: ok (%s vs %s, threshold %.2f%%)\n", flag.Arg(0), flag.Arg(1), *threshold)
}
