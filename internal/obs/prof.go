package obs

import (
	"context"
	"runtime/pprof"
	"strings"
)

// WithStage runs f under pprof labels, so a CPU profile captured via
// -pprof during a soak decomposes by tenant and by pipeline stage (mark
// / regen / deliver / apply). A namespaced reg labels {group=<its prefix
// without the trailing "_">, stage} — the group /metrics renders — and
// the root registry {stage} alone. pprof.Do restores the goroutine's
// previous labels on return, so nesting and calling from long-lived
// pool workers are both safe. A nil reg is the off-switch: f runs
// directly, with no context or label-map allocation on the hot path.
func WithStage(reg *Registry, stage string, f func()) {
	if reg == nil {
		f()
		return
	}
	labels := pprof.Labels("stage", stage)
	if group := strings.TrimSuffix(reg.prefix, "_"); group != "" {
		labels = pprof.Labels("group", group, "stage", stage)
	}
	pprof.Do(context.Background(), labels, func(context.Context) { f() })
}
