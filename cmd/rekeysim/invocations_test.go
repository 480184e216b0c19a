package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// invocationSources are the files, relative to the repository root,
// whose rekeysim command lines must stay runnable.
var invocationSources = []string{
	"DESIGN.md", "README.md", "EXPERIMENTS.md",
	"Makefile", "results/run_all.sh", ".claude/skills/verify/SKILL.md",
}

// continuation joins a line ending in a backslash to the next, dropping
// the next line's comment marker when the command sits in a comment.
var continuation = regexp.MustCompile(`\\\n[ \t]*#?[ \t]*`)

// TestDocumentedInvocations checks every rekeysim command line in the
// prose, the Makefile, the figure script and the verify skill: its
// command must be one run dispatches, and each -flag one that command's
// flag set defines. Flag values are not parsed, so placeholders such as
// N or FILE pass; <command> and [flags] placeholders are skipped.
func TestDocumentedInvocations(t *testing.T) {
	checked := 0
	for _, name := range invocationSources {
		raw, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range codeOf(name, string(raw)) {
			for _, line := range strings.Split(continuation.ReplaceAllString(code, " "), "\n") {
				for _, args := range invocations(line) {
					checked++
					if problem := checkInvocation(args); problem != "" {
						t.Errorf("%s: `rekeysim %s`: %s", name, strings.Join(args, " "), problem)
					}
				}
			}
		}
	}
	t.Logf("checked %d rekeysim invocations", checked)
	if checked < 40 { // a pattern that matched nothing would pass vacuously
		t.Errorf("only %d invocations found; the extraction is broken", checked)
	}
}

// codeOf returns the parts of a file that hold commands: all of a
// Makefile or script, and a markdown file's fenced blocks and inline
// code spans (a span may wrap across lines).
func codeOf(name, text string) []string {
	if !strings.HasSuffix(name, ".md") {
		return []string{text}
	}
	var code []string
	for i, part := range strings.Split(text, "```") {
		if i%2 == 1 {
			code = append(code, part)
			continue
		}
		for j, span := range strings.Split(part, "`") {
			if j%2 == 1 {
				code = append(code, strings.ReplaceAll(span, "\n", " "))
			}
		}
	}
	return code
}

// invocations returns the arguments of each rekeysim command line in
// line, up to the first shell operator or comment. `go test
// ./cmd/rekeysim` and `go build -o .../rekeysim` are not invocations.
func invocations(line string) [][]string {
	var out [][]string
	fields := strings.Fields(line)
	for i, f := range fields {
		if f != "rekeysim" && !strings.HasSuffix(f, "/rekeysim") {
			continue
		}
		if i > 0 && (fields[i-1] == "test" || fields[i-1] == "-o") {
			continue
		}
		args := fields[i+1:]
		for j, a := range args {
			if strings.ContainsAny(a[:1], "|>;&#") {
				args = args[:j]
				break
			}
		}
		if len(args) > 0 && !placeholder(args[0]) {
			out = append(out, args)
		}
	}
	return out
}

func placeholder(arg string) bool { return strings.ContainsAny(arg[:1], "<[…") }

// checkInvocation describes what is wrong with one command line, or
// returns "" when run would accept its command and flag names. A
// command written as alternatives (fig9|fig10) checks each.
func checkInvocation(args []string) string {
	for _, name := range strings.Split(args[0], "|") {
		cmd, ok := commands[name]
		if !ok {
			return "no command " + name
		}
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		fs.String("pprof", "", "") // run declares -pprof on every command
		cmd(fs)
		for i := 1; i < len(args); i++ {
			arg := args[i]
			if placeholder(arg) {
				continue
			}
			if !strings.HasPrefix(arg, "-") {
				return "unexpected argument " + arg
			}
			flagName, _, hasValue := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			f := fs.Lookup(flagName)
			if f == nil {
				return name + " has no flag -" + flagName
			}
			if b, ok := f.Value.(interface{ IsBoolFlag() bool }); !hasValue && !(ok && b.IsBoolFlag()) {
				i++ // the value, unparsed: it may be a placeholder
			}
		}
	}
	return ""
}
