package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRejects runs the built command on the three inputs it must
// refuse, and checks the exit status, the reason on stderr and that
// nothing reached stdout: a bad list-flag entry is refused by flag.Parse,
// before any experiment prints its header.
func TestCLIRejects(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "vmmcbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"unknown id", []string{"-experiment", "nosuch"}, `unknown experiment "nosuch"`},
		{"excluded id", []string{"-deterministic", "-experiment", "scalesweep"},
			`experiment "scalesweep" is not in the -deterministic set`},
		{"bad list entry", []string{"-coll-nodes", "1"}, `bad -coll-nodes entry "1"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, c.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("exit: %v, want status 2", err)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not say %q", stderr.String(), c.stderr)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout %q, want nothing", stdout.String())
			}
		})
	}
}
