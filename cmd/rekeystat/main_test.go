package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tmesh/internal/obs/expose"
)

const sampleExposition = `# TYPE slo_members gauge
slo_members{group="flash"} 2000
slo_members{group="mass"} 300
# TYPE slo_verdict gauge
slo_verdict{group="flash"} 0
slo_verdict{group="mass"} 2
# TYPE slo_latency_p95_us gauge
slo_latency_p95_us{group="flash"} 1500000
# TYPE slo_rekey_cost gauge
slo_rekey_cost{group="flash"} 412
# TYPE slo_verdict_ok counter
slo_verdict_ok{group="flash"} 4
slo_verdict_ok{group="mass"} 3
# TYPE slo_verdict_page counter
slo_verdict_page{group="mass"} 1
# TYPE recovery_rung_multicast counter
recovery_rung_multicast{group="flash"} 9
# TYPE recovery_rung_unicast counter
recovery_rung_unicast{group="flash"} 2
# TYPE transport_sent_total counter
transport_sent_total 123456
`

func TestParseExposition(t *testing.T) {
	got := expose.Parse(sampleExposition)
	if len(got) != 12 {
		t.Fatalf("parsed %d samples, want 12", len(got))
	}
	first := got[0]
	if first.Name != "slo_members" || first.Labels["group"] != "flash" || first.Value != 2000 {
		t.Errorf("first sample = %+v", first)
	}
	last := got[len(got)-1]
	if last.Name != "transport_sent_total" || len(last.Labels) != 0 || last.Value != 123456 {
		t.Errorf("unlabelled sample = %+v", last)
	}
}

func TestParseExpositionSkipsGarbage(t *testing.T) {
	for _, line := range []string{
		"no_value",
		"bad{unterminated 1",
		`bad{k="v} 1`,
		"name 1 2 3",
		`name{k=v} 1`,
	} {
		if got := expose.Parse(line); len(got) != 0 {
			t.Errorf("expose.Parse(%q) = %+v, want none", line, got)
		}
	}
}

func TestStatsFromSeries(t *testing.T) {
	stats := statsFromSeries(expose.Parse(sampleExposition))
	byName := map[string]groupStat{}
	for _, s := range stats {
		byName[s.Group] = s
	}
	if len(byName) != 2 {
		t.Fatalf("got groups %v, want flash and mass", byName)
	}
	flash := byName["flash"]
	if flash.Members != 2000 || flash.Verdict != "ok" || flash.P95MS != 1500 ||
		flash.RekeyCost != 412 || flash.OK != 4 || flash.Multicast != 9 || flash.Unicast != 2 {
		t.Errorf("flash row = %+v", flash)
	}
	mass := byName["mass"]
	if mass.Verdict != "page" || mass.Page != 1 || mass.OK != 3 {
		t.Errorf("mass row = %+v", mass)
	}
}

func TestStatsFromJSONL(t *testing.T) {
	lines := [][]byte{
		[]byte(`{"kind":"slo","group":"chaos","boundary":1,"members":96,"rekey_cost":40,"latency_p95_ms":900,"verdict":"ok",` + objOK + `}`),
		[]byte(`{"kind":"interval","interval":1,"key_by_multicast":90,"key_by_unicast":5,"key_by_resync":1}`),
		[]byte(`{"kind":"slo","group":"chaos","boundary":2,"members":101,"rekey_cost":55,"latency_p95_ms":1200,"verdict":"warn",` + objOK + `}`),
		[]byte(`{"kind":"interval","interval":2,"key_by_multicast":95,"key_by_unicast":6,"key_by_resync":0}`),
		[]byte(`{"kind":"metrics","snapshot":{}}`),
	}
	stats, err := statsFromJSONL(lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("got %d rows, want 1", len(stats))
	}
	s := stats[0]
	if s.Group != "chaos" || s.Members != 101 || s.P95MS != 1200 || s.Verdict != "warn" ||
		s.OK != 1 || s.Warn != 1 || s.Multicast != 185 || s.Unicast != 11 || s.Resync != 1 {
		t.Errorf("row = %+v", s)
	}
}

func TestRunMetricsEndToEnd(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(sampleExposition))
	}))
	defer srv.Close()
	var out strings.Builder
	if code := run([]string{"-metrics", srv.URL}, &out); code != 0 {
		t.Fatalf("run = %d, want 0\n%s", code, out.String())
	}
	text := out.String()
	for _, want := range []string{"GROUP", "flash", "mass", "page", "2000"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunJSONLEndToEnd(t *testing.T) {
	stream := `{"kind":"slo","group":"flash","boundary":1,"members":2000,"rekey_cost":10,"latency_p95_ms":800,"verdict":"ok",` + objOK + `}
{"kind":"slo","group":"mass","boundary":1,"members":300,"rekey_cost":9,"latency_p95_ms":700,"verdict":"ok",` + objOK + `}
`
	var out strings.Builder
	if code := runJSONL(t, stream, &out); code != 0 {
		t.Fatalf("run = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "flash") || !strings.Contains(out.String(), "mass") {
		t.Errorf("output missing groups:\n%s", out.String())
	}
}

// okObjective is a well-formed slo objective; objOK a field holding it.
const (
	okObjective = `{"name":"x","good":1,"total":1,"target":0.9,"verdict":"ok"}`
	objOK       = `"objectives":[` + okObjective + `]`
)

// runJSONL writes stream to a file and runs rekeystat -jsonl on it.
func runJSONL(t *testing.T, stream string, out io.Writer) int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "soak.jsonl")
	if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	return run([]string{"-jsonl", path}, out)
}

// TestJSONLStreamRules: -jsonl exits 1 on a stream that breaks a rule of
// the -metrics-out schema, and renders one that keeps them all.
func TestJSONLStreamRules(t *testing.T) {
	slo := func(group string, boundary int, verdict, objectives string) string {
		rec := fmt.Sprintf(`{"kind":"slo","boundary":%d,"verdict":%q`, boundary, verdict)
		if group != "" {
			rec += fmt.Sprintf(`,"group":%q`, group)
		}
		if objectives != "" {
			rec += `,"objectives":[` + objectives + `]`
		}
		return rec + "}\n"
	}
	const obj = okObjective
	interval := func(n int) string { return fmt.Sprintf(`{"kind":"interval","interval":%d}`+"\n", n) }
	for _, tt := range []struct {
		name, stream string
		want         int
	}{
		{"clean slo stream", slo("flash", 1, "ok", obj) + slo("mass", 1, "ok", obj) + slo("flash", 2, "warn",
			`{"name":"delivery","good":9,"total":11,"target":0.999,"verdict":"warn"}`), 0},
		// The host interleaves tenants: b starting at 1 after a reached 3
		// is legal.
		{"boundaries per group", slo("a", 3, "ok", obj) + slo("b", 1, "ok", obj), 0},
		{"increasing intervals", interval(1) + interval(2), 0},
		{"missing group", slo("", 1, "ok", obj), 1},
		{"bad verdict", slo("g", 1, "meh", obj), 1},
		{"no objectives", slo("g", 1, "ok", ""), 1},
		{"good exceeds total", slo("g", 1, "ok", `{"name":"x","good":2,"total":1,"target":0.9,"verdict":"ok"}`), 1},
		{"target out of range", slo("g", 1, "ok", `{"name":"x","good":1,"total":1,"target":1.5,"verdict":"ok"}`), 1},
		{"objective no name", slo("g", 1, "ok", `{"good":1,"total":1,"target":0.9,"verdict":"ok"}`), 1},
		{"boundary not rising", slo("g", 2, "ok", obj) + slo("g", 2, "ok", obj), 1},
		{"objective bad verdict", slo("g", 1, "ok", `{"name":"x","good":1,"total":1,"target":0.9,"verdict":"maybe"}`), 1},
		{"repeated interval", interval(2) + interval(2), 1},
		{"no interval or slo records", `{"kind":"metrics"}` + "\n", 1},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var out strings.Builder
			if got := runJSONL(t, tt.stream, &out); got != tt.want {
				t.Errorf("exit %d, want %d\n%s", got, tt.want, out.String())
			}
		})
	}
}

func TestRunFlagHygiene(t *testing.T) {
	var out strings.Builder
	if code := run(nil, &out); code != 2 {
		t.Errorf("run() with no source = %d, want 2", code)
	}
	if code := run([]string{"-metrics", "http://x", "-jsonl", "y"}, &out); code != 2 {
		t.Errorf("run() with both sources = %d, want 2", code)
	}
}
