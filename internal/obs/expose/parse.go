package expose

import (
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: the series name as written
// (histogram series keep their _bucket/_sum/_count suffix), its label
// set, and its value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Parse reads Prometheus text format — the subset Render emits: no
// timestamps, no exemplars — and returns the samples in input order.
// Comment lines are dropped, and unknown or malformed lines are skipped
// rather than fatal: a status viewer should degrade, not crash, on a
// partially written scrape.
func Parse(text string) []Sample {
	var out []Sample
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if s, ok := parseSample(line); ok {
			out = append(out, s)
		}
	}
	return out
}

func parseSample(line string) (Sample, bool) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return s, false
		}
		s.Name = line[:i]
		if !parseLabels(line[i+1:j], s.Labels) {
			return s, false
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return s, false
		}
		s.Name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, false
	}
	s.Value = v
	return s, true
}

// parseLabels reads a comma-separated key="value" list, undoing
// escapeLabel on the values.
func parseLabels(body string, into map[string]string) bool {
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return false
		}
		key, rest := body[:eq], body[eq+2:]
		var val strings.Builder
		end := -1
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '"' {
				end = i
				break
			}
			if c == '\\' && i+1 < len(rest) {
				i++
				if c = rest[i]; c == 'n' {
					c = '\n'
				}
			}
			val.WriteByte(c)
		}
		if end < 0 {
			return false
		}
		into[key] = val.String()
		body = strings.TrimPrefix(rest[end+1:], ",")
	}
	return true
}
