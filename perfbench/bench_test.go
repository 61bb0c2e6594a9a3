package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// contract reads the metric names BENCHMARK.json promises.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkMetrics asserts got holds exactly the promised metrics, each
// with the promised unit.
func checkMetrics(t *testing.T, mode string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", mode, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, want %q", mode, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", mode, name)
		}
	}
}

// checkSpans asserts every span is closed and lies inside its parent.
func checkSpans(t *testing.T, spans []Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d %s not closed: %+v", s.ID, s.Name, s)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("span %d %s opened before its parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d %s [%d,%d] escapes parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
}

// TestShortRuns runs every workload for the fewest steps a run may
// take, untraced and traced (twice), and checks the output contract.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; about a minute")
	}
	endToEnd, perLayer := contract(t)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			cfg := runConfig{seed: 3, dir: t.TempDir()}
			res, err := run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum := res.summary()
			if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", sum.Correct, sum.Attempted, sum.Failed)
			}
			checkMetrics(t, "untraced", sum.Metrics, endToEnd)
			if r := sum.Metrics["success_rate"].Value; r != 1 {
				t.Errorf("success_rate = %v, want 1", r)
			}

			cfg.trace = true
			var counts []map[string]float64
			for i := 0; i < 2; i++ {
				res, err := run(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sum := res.summary()
				if !sum.Correct || sum.Failed != 0 {
					t.Fatalf("traced run: correct=%v failed=%d", sum.Correct, sum.Failed)
				}
				checkMetrics(t, "traced", sum.Metrics, perLayer)
				checkSpans(t, res.spans)
				c := map[string]float64{}
				for name := range countMetrics {
					c[name] = sum.Metrics[name].Value
				}
				counts = append(counts, c)
			}
			for name, v := range counts[0] {
				if counts[1][name] != v {
					t.Errorf("exact count %s: %v then %v", name, v, counts[1][name])
				}
			}
		})
	}
}

func TestFoldProfileBuckets(t *testing.T) {
	for fn, want := range map[string]string{
		"vmsh/internal/pagetable.(*Walker).Walk": "pagetable",
		"vmsh/internal/ksym.findTable":           "ksym",
		"hash/fnv.(*sum64a).Write":               "hash_fnv",
		"encoding/json.(*decodeState).object":    "encoding_json",
		"runtime.memmove":                        "",
		"runtime.memclrNoHeapPointers":           "runtime_memclr",
		"vmsh.(*Lab).LaunchVM":                   "",
	} {
		if got := leafBucket(fn); got != want {
			t.Errorf("leafBucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestHeldOutStormConfigs checks that the held-out seed runs only its
// own round configurations and that no other seed draws one of them.
func TestHeldOutStormConfigs(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, heldOutSeed, 11, 12345} {
		order := stormOrder(seed)
		lo := 0
		if seed == heldOutSeed {
			lo = stormConfigs
		}
		for _, c := range order {
			if c < lo || c >= lo+stormConfigs {
				t.Fatalf("seed %d draws configuration %d, outside [%d,%d)", seed, c, lo, lo+stormConfigs)
			}
		}
	}
}
