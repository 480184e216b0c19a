package expose

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tmesh/internal/obs"
)

// TestRenderGolden pins the full exposition output for a registry with
// namespaced tenants, counters, gauges, and a histogram: family and
// series order, group-label derivation (longest prefix wins), name
// sanitisation, cumulative buckets, and the synthetic +Inf bucket.
func TestRenderGolden(t *testing.T) {
	r := goldenRegistry()
	var b strings.Builder
	if err := Render(&b, r.Snapshot(), r.Prefixes()); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenExposition {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, goldenExposition)
	}
}

// goldenRegistry is the registry goldenExposition renders.
func goldenRegistry() *obs.Registry {
	r := obs.New()
	r.Counter("split_hops").Add(7)
	r.Gauge("transport_queue_S/012").Set(3) // '/' must sanitise to '_'
	flash := r.Namespace("flash_")
	flash.Counter("core_apply_users").Add(42)
	flash.Gauge("slo_members").Set(100000)
	mass := r.Namespace("mass_")
	mass.Counter("core_apply_users").Add(9)
	h := flash.Histogram("rekey_latency_ms", []int64{10, 100, 1000})
	for _, v := range []int64{5, 5, 50, 5000} {
		h.Observe(v)
	}
	return r
}

const goldenExposition = `# TYPE core_apply_users counter
core_apply_users{group="flash"} 42
core_apply_users{group="mass"} 9
# TYPE split_hops counter
split_hops 7
# TYPE slo_members gauge
slo_members{group="flash"} 100000
# TYPE transport_queue_S_012 gauge
transport_queue_S_012 3
# TYPE rekey_latency_ms histogram
rekey_latency_ms_bucket{group="flash",le="10"} 2
rekey_latency_ms_bucket{group="flash",le="100"} 3
rekey_latency_ms_bucket{group="flash",le="+Inf"} 4
rekey_latency_ms_sum{group="flash"} 5060
rekey_latency_ms_count{group="flash"} 4
`

// TestParseRoundTrip: Parse is Render's inverse on the golden — every
// family, label and value comes back, in exposition order — and on
// label values that need escaping.
func TestParseRoundTrip(t *testing.T) {
	r := goldenRegistry()
	var b strings.Builder
	if err := Render(&b, r.Snapshot(), r.Prefixes()); err != nil {
		t.Fatal(err)
	}
	flash := map[string]string{"group": "flash"}
	want := []Sample{
		{"core_apply_users", flash, 42},
		{"core_apply_users", map[string]string{"group": "mass"}, 9},
		{"split_hops", map[string]string{}, 7},
		{"slo_members", flash, 100000},
		{"transport_queue_S_012", map[string]string{}, 3},
		{"rekey_latency_ms_bucket", map[string]string{"group": "flash", "le": "10"}, 2},
		{"rekey_latency_ms_bucket", map[string]string{"group": "flash", "le": "100"}, 3},
		{"rekey_latency_ms_bucket", map[string]string{"group": "flash", "le": "+Inf"}, 4},
		{"rekey_latency_ms_sum", flash, 5060},
		{"rekey_latency_ms_count", flash, 4},
	}
	if got := Parse(b.String()); !reflect.DeepEqual(got, want) {
		t.Errorf("Parse(Render(golden)) =\n%+v\nwant\n%+v", got, want)
	}

	hostile := "a\"b\\c\nd,e=\"f\""
	line := "m" + labels(hostile, `le="1"`) + " 5\n"
	got := Parse(line)
	if len(got) != 1 || got[0].Labels["group"] != hostile || got[0].Labels["le"] != "1" || got[0].Value != 5 {
		t.Errorf("Parse(%q) = %+v, want group %q", line, got, hostile)
	}
}

// TestCumulativeBuckets checks bucket re-accumulation in isolation: the
// snapshot's per-bucket counts (with zero buckets omitted and the
// overflow folded into +Inf) must come out cumulative and ending at the
// total sample count.
func TestCumulativeBuckets(t *testing.T) {
	r := obs.New()
	h := r.Histogram("lat", []int64{1, 2, 4, 8})
	for _, v := range []int64{1, 2, 2, 8, 100, 100} { // bucket 2 and 4 empty vs skipped
		h.Observe(v)
	}
	var b strings.Builder
	if err := Render(&b, r.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 3`,
		`lat_bucket{le="8"} 4`, // le="4" omitted: zero samples
		`lat_bucket{le="+Inf"} 6`,
		`lat_sum 213`,
		`lat_count 6`,
	}
	got := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")[1:] // drop # TYPE
	if len(got) != len(want) {
		t.Fatalf("lines = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"ok_name":      "ok_name",
		"with/slash":   "with_slash",
		"dash-and.dot": "dash_and_dot",
		"0leading":     "_0leading",
		"":             "_",
		"mixed:colon9": "mixed:colon9",
	} {
		if got := Sanitize(in); got != want {
			t.Errorf("Sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestScrapeDuringWrite hammers the registry from writer goroutines
// while scraping and rendering concurrently — the -race guard for a
// scraper pulling /metrics mid-soak.
func TestScrapeDuringWrite(t *testing.T) {
	r := obs.New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ns := r.Namespace("g" + string(rune('0'+w)) + "_")
			c := ns.Counter("hits")
			h := ns.Histogram("lat", obs.LatencyBuckets)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(int64(i))
				ns.Gauge("depth").Set(int64(i))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := Render(&b, r.Snapshot(), r.Prefixes()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestHandler serves a live registry over HTTP and checks content type,
// liveness, and that the source is re-read per scrape.
func TestHandler(t *testing.T) {
	r := obs.New()
	h := Handler(RegistrySource(func() *obs.Registry { return r }))

	r.Counter("scrapes_seen").Add(1)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("content type = %q, want %q", ct, ContentType)
	}
	if !strings.Contains(rec.Body.String(), "scrapes_seen 1") {
		t.Errorf("first scrape missing counter:\n%s", rec.Body.String())
	}

	r.Counter("scrapes_seen").Add(1)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "scrapes_seen 2") {
		t.Errorf("second scrape served stale data:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	HealthzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Errorf("healthz = %d %q, want 200 \"ok\\n\"", rec.Code, rec.Body.String())
	}

	// A nil registry source must serve an empty exposition, not crash.
	rec = httptest.NewRecorder()
	Handler(RegistrySource(func() *obs.Registry { return nil })).
		ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Errorf("nil registry scrape = %d %q, want empty 200", rec.Code, rec.Body.String())
	}
}
