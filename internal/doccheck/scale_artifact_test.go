package doccheck

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// A table row of the doc: its first cell's code spans and its meaning.
var fieldRowRe = regexp.MustCompile("^\\| (`[^|]+) \\| (.+) \\|$")

// docs/PERFORMANCE.md's "Reading BENCH_scale.json" table is the reader's
// key to the scalesweep artifact, so it is held to the tags the artifact
// is rendered from: its rows name every member of a configuration object,
// in artifact order, and nothing else; and a row is marked Host-dependent
// exactly when its members are the wall-clock ones below, Deterministic
// otherwise.
func TestScaleArtifactDocumented(t *testing.T) {
	host := map[string]bool{"wall_seconds": true, "events_per_sec": true, "allocs_per_event": true, "heap_sys_mb": true}
	var keys []string
	rt := reflect.TypeOf(bench.ScaleResult{})
	for i := 0; i < rt.NumField(); i++ {
		if name, _, _ := strings.Cut(rt.Field(i).Tag.Get("key"), ","); name != "" {
			keys = append(keys, name)
		}
	}
	keys = append(keys, "verdict") // the analyzer's, appended to every case object

	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "PERFORMANCE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Reading BENCH_scale.json\n")
	if !ok {
		t.Fatal(`docs/PERFORMANCE.md has no "Reading BENCH_scale.json" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, line := range strings.Split(section, "\n") {
		m := fieldRowRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var rowHost []bool
		for _, span := range codeSpanRe.FindAllString(m[1], -1) {
			key := strings.Trim(span, "`")
			documented = append(documented, key)
			rowHost = append(rowHost, host[key])
		}
		isHost, want := rowHost[0], "Deterministic"
		if isHost {
			want = "Host-dependent"
		}
		if slices.Contains(rowHost, !isHost) ||
			strings.Contains(m[2], "Host-dependent") != isHost || strings.Contains(m[2], "Deterministic") == isHost {
			t.Errorf("row %s: its members must all be wall-clock or none, and its meaning must say %s alone", m[1], want)
		}
	}
	if !slices.Equal(documented, keys) {
		t.Errorf("the table documents %q;\nScaleResult renders %q", documented, keys)
	}
}
