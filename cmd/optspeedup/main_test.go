package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCases pins optspeedup's stdout byte-for-byte: the README quick
// start, the paper's P*=14 anchor, one case per other machine type, and
// the -curve and -dump-spec paths. Each testdata/<name>.golden
// file is the output of the command line beside it.
var goldenCases = []struct {
	name string
	args string
}{
	{"readme", "-n 512 -stencil 5-point -shape square -arch sync-bus -procs 0"},
	{"anchor", "-n 256 -stencil 5-point -shape square -arch sync-bus"},
	{"hypercube", "-n 1024 -stencil 9-point -shape strip -arch hypercube"},
	{"mesh", "-n 512 -arch mesh -procs 64"},
	{"async-bus", "-n 256 -stencil 13-point -arch async-bus"},
	{"full-async-bus", "-n 256 -shape strip -arch full-async-bus"},
	{"banyan", "-n 2048 -stencil 9-star -arch banyan -procs 1024"},
	{"curve", "-n 256 -arch hypercube -curve 8"},
	{"dump-spec", "-arch mesh -procs 32 -dump-spec"},
}

func runArgs(t *testing.T, args []string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %q: %v", args, err)
	}
	return out.String()
}

func TestGoldenOutput(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := runArgs(t, strings.Fields(tc.args)); got != string(want) {
				t.Errorf("optspeedup %s:\ngot:\n%s\nwant:\n%s", tc.args, got, want)
			}
		})
	}
}

// TestArchAcceptsDumpedSpec checks that -arch given the JSON spec that
// -dump-spec prints for a type name gives the same output as the name.
func TestArchAcceptsDumpedSpec(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			args := strings.Fields(tc.args)
			byName := runArgs(t, args)
			spec := byName
			if !strings.Contains(tc.args, "-dump-spec") {
				spec = runArgs(t, append(args, "-dump-spec"))
			}
			var jsonArgs []string
			for i := 0; i < len(args); i++ {
				switch args[i] {
				case "-procs": // the spec carries procs
					i++
				case "-arch":
					jsonArgs = append(jsonArgs, "-arch", spec)
					i++
				default:
					jsonArgs = append(jsonArgs, args[i])
				}
			}
			if byJSON := runArgs(t, jsonArgs); byJSON != byName {
				t.Errorf("-arch %s:\ngot:\n%s\nwant:\n%s", spec, byJSON, byName)
			}
		})
	}
}

func TestRejectsBadInput(t *testing.T) {
	for _, args := range []string{
		"-arch torus",
		"-arch {bad",
		"-stencil 7-point",
		"-shape hexagon",
		"-n 0",
		"-arch sync-bus -procs -3",
	} {
		if err := run(strings.Fields(args), new(bytes.Buffer)); err == nil {
			t.Errorf("optspeedup %s: no error", args)
		}
	}
}
