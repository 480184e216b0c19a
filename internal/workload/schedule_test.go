package workload

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// committedSchedules returns the text of every schedule under testdata.
func committedSchedules(t testing.TB) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.sched"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed schedules: %v", err)
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = string(b)
	}
	return out
}

// generatedSeeds are one small schedule per scenario constructor.
func generatedSeeds(t testing.TB) []*Schedule {
	t.Helper()
	var out []*Schedule
	for _, cfg := range []Config{Paper13(1), FlashCrowd(16, 64, 2), MassJoinLeave(64, 16, 16, 2, 3)} {
		s, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestScheduleTextRoundTrip: generated and committed schedules print to
// text that parses back to the same schedule, Hosts included.
func TestScheduleTextRoundTrip(t *testing.T) {
	schedules := generatedSeeds(t)
	for name, text := range committedSchedules(t) {
		s, err := ParseSchedule(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		schedules = append(schedules, s)
	}
	schedules = append(schedules, &Schedule{Hosts: 5, Events: []Event{
		{Kind: Join, At: 0, Host: 4},
		{Kind: Crash, At: 1500 * time.Millisecond, Victim: 4, Burst: true, Leader: true},
		{Kind: Crash, At: 2*time.Hour + 1, Victim: 4, Leader: true},
	}})
	for i, s := range schedules {
		back, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("schedule %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("schedule %d changed in a text round trip", i)
		}
	}
}

// TestParseScheduleRejects: each malformed line names itself.
func TestParseScheduleRejects(t *testing.T) {
	for _, text := range []string{
		"1s join",
		"1s join 1 extra",
		"1s leave 1 burst",
		"1s crash 1 burst burst",
		"x join 1",
		"-1s join 1",
		"1s hop 1",
		"1s join -1",
		"1s join 16777216",
		"2s join 1\n1s join 2",
	} {
		if _, err := ParseSchedule("# header\n" + text); err == nil || !strings.Contains(err.Error(), "line") {
			t.Errorf("%q: err = %v, want a line-numbered error", text, err)
		}
	}
}

// TestCursorBoundary pins the boundary rule: an event exactly on a
// boundary belongs to the interval after it.
func TestCursorBoundary(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: Join, At: 0},
		{Kind: Join, At: time.Second, Host: 1},
		{Kind: Join, At: 10 * time.Second, Host: 2},
		{Kind: Leave, At: 15 * time.Second, Victim: 2},
	}}
	c := s.Cursor()
	if got := c.Next(10 * time.Second); len(got) != 2 || c.Done() {
		t.Fatalf("first interval took %d events, done %v; the boundary event belongs to the next", len(got), c.Done())
	}
	if got := c.Next(20 * time.Second); len(got) != 2 || got[0].Host != 2 || !c.Done() {
		t.Fatalf("second interval took %+v, done %v", got, c.Done())
	}
}

// FuzzParseSchedule: any text that parses prints to text that parses to
// the same schedule, and printing a parsed schedule is a fixed point.
func FuzzParseSchedule(f *testing.F) {
	for _, text := range committedSchedules(f) {
		f.Add(text)
	}
	for _, s := range generatedSeeds(f) {
		f.Add(s.String())
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSchedule(text)
		if err != nil {
			return
		}
		printed := s.String()
		back, err := ParseSchedule(printed)
		if err != nil {
			t.Fatalf("printed schedule does not parse: %v\n%s", err, printed)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip changed the schedule:\n%s", printed)
		}
		if again := back.String(); again != printed {
			t.Fatalf("print∘parse is not a fixed point:\n%s\n---\n%s", printed, again)
		}
	})
}
