package obs

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
)

// stageLabels runs WithStage(reg, stage, …) and returns the "# labels:"
// line a goroutine profile taken inside it shows for that stage ("" if
// none does).
func stageLabels(t *testing.T, reg *Registry, stage string) string {
	t.Helper()
	var buf bytes.Buffer
	WithStage(reg, stage, func() {
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
	})
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# labels:") && strings.Contains(line, `"stage":"`+stage+`"`) {
			return line
		}
	}
	return ""
}

// TestWithStageLabelsFollowTheNamespace: the pprof group label is the
// registry's namespace without its "_" separator, the root registry
// labels the stage alone, and a nil registry labels nothing.
func TestWithStageLabelsFollowTheNamespace(t *testing.T) {
	root := New()
	if got := stageLabels(t, root.Namespace("g7_"), "apply"); !strings.Contains(got, `"group":"g7"`) {
		t.Errorf("namespaced registry: labels %q, want group g7 and stage apply", got)
	}
	got := stageLabels(t, root, "regen")
	if got == "" || strings.Contains(got, `"group"`) {
		t.Errorf("root registry: labels %q, want stage regen alone", got)
	}
	if got := stageLabels(t, nil, "mark"); got != "" {
		t.Errorf("nil registry: labels %q, want none", got)
	}
}

// TestWithStageNilAllocatesNothing: the off-switch costs no allocation.
func TestWithStageNilAllocatesNothing(t *testing.T) {
	n := 0
	f := func() { n++ }
	if allocs := testing.AllocsPerRun(100, func() { WithStage(nil, "apply", f) }); allocs != 0 {
		t.Errorf("WithStage(nil, …) allocates %.1f times per call, want 0", allocs)
	}
}
