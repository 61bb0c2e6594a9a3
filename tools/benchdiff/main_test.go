package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func mustParse(t *testing.T, s string) *benchFile {
	t.Helper()
	var doc benchFile
	if err := json.Unmarshal([]byte(s), &doc); err != nil {
		t.Fatalf("parse: %v", err)
	}
	var top fleetDoc
	if err := json.Unmarshal([]byte(s), &top); err == nil && len(top.Runs) > 0 {
		doc.top = top
	}
	return &doc
}

const e5Base = `{"fast_path":[
	{"Name":"fast","VirtualTime":1000,"ProcVMCalls":10,"Interrupts":5,"BytesMoved":4096},
	{"Name":"legacy","VirtualTime":2000,"ProcVMCalls":300,"Interrupts":140,"BytesMoved":4096}]}`

func TestE5IdenticalPasses(t *testing.T) {
	r := diff(mustParse(t, e5Base), mustParse(t, e5Base), 0)
	if len(r.regressions) != 0 {
		t.Fatalf("identical docs regressed: %v", r.regressions)
	}
}

func TestE5GrowthBeyondThresholdFails(t *testing.T) {
	cand := `{"fast_path":[
		{"Name":"fast","VirtualTime":1200,"ProcVMCalls":10,"Interrupts":5,"BytesMoved":4096},
		{"Name":"legacy","VirtualTime":2000,"ProcVMCalls":300,"Interrupts":140,"BytesMoved":4096}]}`
	r := diff(mustParse(t, e5Base), mustParse(t, cand), 5)
	if len(r.regressions) != 1 {
		t.Fatalf("want 1 regression (vtime +20%% > 5%%), got %v", r.regressions)
	}
	// The same growth passes under a looser threshold.
	r = diff(mustParse(t, e5Base), mustParse(t, cand), 25)
	if len(r.regressions) != 0 {
		t.Fatalf("+20%% under 25%% threshold regressed: %v", r.regressions)
	}
}

func TestE5ImprovementPasses(t *testing.T) {
	cand := `{"fast_path":[
		{"Name":"fast","VirtualTime":900,"ProcVMCalls":8,"Interrupts":5,"BytesMoved":4096},
		{"Name":"legacy","VirtualTime":2000,"ProcVMCalls":300,"Interrupts":140,"BytesMoved":4096}]}`
	r := diff(mustParse(t, e5Base), mustParse(t, cand), 0)
	if len(r.regressions) != 0 {
		t.Fatalf("improvement flagged as regression: %v", r.regressions)
	}
	if len(r.notes) == 0 {
		t.Fatal("improvement produced no note")
	}
}

func TestE5MissingModeFails(t *testing.T) {
	cand := `{"fast_path":[
		{"Name":"fast","VirtualTime":1000,"ProcVMCalls":10,"Interrupts":5,"BytesMoved":4096}]}`
	r := diff(mustParse(t, e5Base), mustParse(t, cand), 0)
	if len(r.regressions) != 1 {
		t.Fatalf("want missing-mode regression, got %v", r.regressions)
	}
}

const e9Base = `{"schema_version":2,"vms":100,"shards":8,"seed":42,
	"runs":[{"workers":1,"events":500,"messages":8,"max_vtime_ms":900.5,"digest":"aaaa"}],
	"vtimes_ms":[1.5,2.5],"deterministic":true}`

func TestE9IdenticalPasses(t *testing.T) {
	r := diff(mustParse(t, e9Base), mustParse(t, e9Base), 0)
	if len(r.regressions) != 0 {
		t.Fatalf("identical fleet docs regressed: %v", r.regressions)
	}
}

func TestE9EventGrowthFails(t *testing.T) {
	cand := `{"schema_version":2,"vms":100,"shards":8,"seed":42,
		"runs":[{"workers":1,"events":600,"messages":8,"max_vtime_ms":900.5,"digest":"bbbb"}],
		"vtimes_ms":[1.5,2.5],"deterministic":true}`
	r := diff(mustParse(t, e9Base), mustParse(t, cand), 0)
	if len(r.regressions) != 2 {
		t.Fatalf("want events and digest regressions, got %v", r.regressions)
	}
}

func TestE9DigestChangeFails(t *testing.T) {
	// Same configuration, same scalar metrics, different digest: some
	// simulated behaviour moved, which the bit-identical policy rejects
	// at any threshold.
	cand := `{"schema_version":2,"vms":100,"shards":8,"seed":42,
		"runs":[{"workers":1,"events":500,"messages":8,"max_vtime_ms":900.5,"digest":"bbbb"}],
		"vtimes_ms":[1.5,2.5],"deterministic":true}`
	r := diff(mustParse(t, e9Base), mustParse(t, cand), 1000)
	if len(r.regressions) != 1 {
		t.Fatalf("want digest regression, got %v", r.regressions)
	}
}

func TestE9ConfigMismatchSkips(t *testing.T) {
	cand := `{"schema_version":2,"vms":1000,"shards":50,"seed":42,
		"runs":[{"workers":1,"events":99999,"messages":50,"max_vtime_ms":5000,"digest":"cccc"}],
		"vtimes_ms":[9.9],"deterministic":true}`
	r := diff(mustParse(t, e9Base), mustParse(t, cand), 0)
	if len(r.regressions) != 0 {
		t.Fatalf("mismatched configs must be skipped, got %v", r.regressions)
	}
}

func TestE9NondeterministicFails(t *testing.T) {
	cand := `{"schema_version":2,"vms":100,"shards":8,"seed":42,
		"runs":[{"workers":1,"events":500,"messages":8,"max_vtime_ms":900.5,"digest":"aaaa"}],
		"vtimes_ms":[1.5,2.5],"deterministic":false}`
	r := diff(mustParse(t, e9Base), mustParse(t, cand), 0)
	if len(r.regressions) != 1 {
		t.Fatalf("want deterministic=false regression, got %v", r.regressions)
	}
}

func TestE9VTimeShiftFails(t *testing.T) {
	cand := `{"schema_version":2,"vms":100,"shards":8,"seed":42,
		"runs":[{"workers":1,"events":500,"messages":8,"max_vtime_ms":900.5,"digest":"aaaa"}],
		"vtimes_ms":[1.5,3.0],"deterministic":true}`
	r := diff(mustParse(t, e9Base), mustParse(t, cand), 0)
	if len(r.regressions) != 1 {
		t.Fatalf("want per-shard vtime regression, got %v", r.regressions)
	}
}

func TestNestedFleetDocument(t *testing.T) {
	// vmsh-bench -json nests the fleet doc under "fleet".
	nested := `{"tables":[],"fleet":` + e9Base + `}`
	r := diff(mustParse(t, nested), mustParse(t, e9Base), 0)
	if len(r.regressions) != 0 {
		t.Fatalf("nested-vs-bare comparison regressed: %v", r.regressions)
	}
}

const e11Base = `{"schema_version":1,"seed":42,
	"legs":[
		{"mode":"stop_and_copy","dirty_pages_per_round":256,"precopy_rounds":2,
		 "downtime_ns":892000,"total_ns":5000000,"pages_precopy":512,"pages_cutover":256,
		 "pages_faulted":0,"pages_drained":0,"bytes_on_wire":3290112,"hashes_equal":true},
		{"mode":"postcopy","dirty_pages_per_round":256,"precopy_rounds":2,
		 "downtime_ns":52000,"total_ns":5000000,"pages_precopy":512,"pages_cutover":0,
		 "pages_faulted":1,"pages_drained":255,"bytes_on_wire":3292160,"hashes_equal":true}],
	"session_survived":true,"session_faulted_pages":1,
	"record_verified":true,"record_crossings":328373}`

func mustParseE11(t *testing.T, s string) *benchFile {
	t.Helper()
	doc := mustParse(t, s)
	var topMig e11Doc
	if err := json.Unmarshal([]byte(s), &topMig); err == nil && len(topMig.Legs) > 0 {
		doc.topMig = topMig
	}
	return doc
}

func TestE11IdenticalPasses(t *testing.T) {
	r := diff(mustParseE11(t, e11Base), mustParseE11(t, e11Base), 0)
	if len(r.regressions) != 0 {
		t.Fatalf("identical migration docs regressed: %v", r.regressions)
	}
}

func TestE11DowntimeGrowthFails(t *testing.T) {
	cand := strings.Replace(e11Base, `"downtime_ns":52000`, `"downtime_ns":60000`, 1)
	r := diff(mustParseE11(t, e11Base), mustParseE11(t, cand), 5)
	if len(r.regressions) != 1 {
		t.Fatalf("want downtime regression (+15%% > 5%%), got %v", r.regressions)
	}
	r = diff(mustParseE11(t, e11Base), mustParseE11(t, cand), 20)
	if len(r.regressions) != 0 {
		t.Fatalf("+15%% under 20%% threshold regressed: %v", r.regressions)
	}
}

func TestE11HashDivergenceFailsAtAnyThreshold(t *testing.T) {
	cand := strings.Replace(e11Base,
		`"bytes_on_wire":3292160,"hashes_equal":true`,
		`"bytes_on_wire":3292160,"hashes_equal":false`, 1)
	r := diff(mustParseE11(t, e11Base), mustParseE11(t, cand), 1000)
	if len(r.regressions) != 1 {
		t.Fatalf("want hash-divergence regression despite huge threshold, got %v", r.regressions)
	}
}

func TestE11LostBooleansFail(t *testing.T) {
	cand := strings.Replace(strings.Replace(e11Base,
		`"session_survived":true`, `"session_survived":false`, 1),
		`"record_verified":true`, `"record_verified":false`, 1)
	r := diff(mustParseE11(t, e11Base), mustParseE11(t, cand), 0)
	if len(r.regressions) != 2 {
		t.Fatalf("want session+record regressions, got %v", r.regressions)
	}
}

func TestE11MissingLegFails(t *testing.T) {
	cand := `{"schema_version":1,"seed":42,
		"legs":[
			{"mode":"stop_and_copy","dirty_pages_per_round":256,"precopy_rounds":2,
			 "downtime_ns":892000,"total_ns":5000000,"pages_precopy":512,"pages_cutover":256,
			 "pages_faulted":0,"pages_drained":0,"bytes_on_wire":3290112,"hashes_equal":true}],
		"session_survived":true,"session_faulted_pages":1,
		"record_verified":true,"record_crossings":328373}`
	r := diff(mustParseE11(t, e11Base), mustParseE11(t, cand), 0)
	if len(r.regressions) != 1 {
		t.Fatalf("want missing-leg regression, got %v", r.regressions)
	}
}

func TestE11SeedMismatchSkips(t *testing.T) {
	cand := strings.Replace(e11Base, `"seed":42`, `"seed":7`, 1)
	r := diff(mustParseE11(t, e11Base), mustParseE11(t, cand), 0)
	if len(r.regressions) != 0 {
		t.Fatalf("mismatched seeds must be skipped, got %v", r.regressions)
	}
}

func TestNestedMigrationDocument(t *testing.T) {
	// vmsh-bench -json nests the migration doc under "migration".
	nested := `{"tables":[],"migration":` + e11Base + `}`
	r := diff(mustParse(t, nested), mustParseE11(t, e11Base), 0)
	if len(r.regressions) != 0 {
		t.Fatalf("nested-vs-bare migration comparison regressed: %v", r.regressions)
	}
}
