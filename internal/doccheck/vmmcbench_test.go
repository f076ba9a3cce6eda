package doccheck

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The docs quote `go run ./cmd/vmmcbench -experiment X -some-flag ...`
// invocations throughout; a renamed experiment or flag silently turns
// those into instructions that fail for the reader. This gate parses
// the registry and flag definitions out of the cmd/vmmcbench source and
// checks every doc mention against them — the same spirit as the link
// checker, for CLI surface instead of anchors.
var (
	// {"headline", "abstract: ...", true, tableExp(...)} — registry rows.
	registryIDRe = regexp.MustCompile(`(?m)^\s*\{"([a-z0-9]+)",`)
	// flag.String("analyze-out", ...) and friends, and the list flags'
	// listFlag("coll-nodes", ...).
	flagDefRe = regexp.MustCompile(`(?:flag\.(?:String|Bool|Int)|listFlag)\("([a-z-]+)"`)

	// -experiment X in prose or a fenced command. The leading delimiter
	// keeps compounds like "per-experiment index" from matching.
	experimentUseRe = regexp.MustCompile("(?:^|[\\s`(])-experiment[\\s=]+([a-z0-9]+)")
	// Hyphenated flags like -analyze-out; requiring an interior hyphen
	// avoids matching go tool flags (-race, -bench) and prose. The
	// leading delimiter keeps mid-word hyphens (store-and-forward) out.
	flagUseRe = regexp.MustCompile("(?:^|[\\s`(])-([a-z]+(?:-[a-z]+)+)\\b")
)

// vmmcbenchSurface parses experiment ids and flag names from the
// command's source files.
func vmmcbenchSurface(t *testing.T, root string) (ids, flags map[string]bool) {
	t.Helper()
	ids, flags = make(map[string]bool), make(map[string]bool)
	for _, src := range []string{"cmd/vmmcbench/registry.go", "cmd/vmmcbench/main.go"} {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(src)))
		if err != nil {
			t.Fatalf("reading %s: %v", src, err)
		}
		for _, m := range registryIDRe.FindAllStringSubmatch(string(data), -1) {
			ids[m[1]] = true
		}
		for _, m := range flagDefRe.FindAllStringSubmatch(string(data), -1) {
			flags[m[1]] = true
		}
	}
	if len(ids) == 0 || len(flags) == 0 {
		t.Fatalf("parsed %d experiment ids and %d flags from cmd/vmmcbench; the source patterns drifted", len(ids), len(flags))
	}
	return ids, flags
}

func TestDocsNameRealExperimentsAndFlags(t *testing.T) {
	root := filepath.Join("..", "..")
	ids, flags := vmmcbenchSurface(t, root)
	for _, doc := range checkedDocs {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(doc)))
		if err != nil {
			t.Errorf("%s: listed in checkedDocs but unreadable: %v", doc, err)
			continue
		}
		// Unlike the link checker, fenced blocks are checked too: that
		// is where the runnable command examples live.
		text := string(data)
		for _, m := range experimentUseRe.FindAllStringSubmatch(text, -1) {
			if !ids[m[1]] {
				t.Errorf("%s: mentions -experiment %s, which cmd/vmmcbench does not register", doc, m[1])
			}
		}
		for _, m := range flagUseRe.FindAllStringSubmatch(text, -1) {
			if !flags[m[1]] {
				t.Errorf("%s: mentions flag -%s, which cmd/vmmcbench does not define", doc, m[1])
			}
		}
	}
	// The registry ids the docs never exercise are worth knowing about:
	// every experiment should be documented somewhere.
	mentioned := make(map[string]bool)
	for _, doc := range checkedDocs {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(doc)))
		if err != nil {
			continue
		}
		for _, m := range experimentUseRe.FindAllStringSubmatch(string(data), -1) {
			mentioned[m[1]] = true
		}
		for id := range ids {
			if strings.Contains(string(data), id) {
				mentioned[id] = true
			}
		}
	}
	for id := range ids {
		if !mentioned[id] {
			t.Errorf("experiment %q is registered in cmd/vmmcbench but never mentioned in any checked doc", id)
		}
	}
}
