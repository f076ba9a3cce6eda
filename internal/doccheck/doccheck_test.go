// Package doccheck is a CI gate for the documentation's cross-references:
// every relative markdown link in the repo's docs must point at a file
// that exists, every #anchor must match a heading in the target file, and
// every repo path, vmmcbench experiment or flag and internal/ identifier
// the docs name must exist. It runs as an ordinary go test so
// `go test ./...` (and the ci workflow) fails when a rename breaks a doc.
package doccheck

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// checkedDocs are the documentation files whose links are load-bearing.
// ISSUE.md, PAPERS.md and SNIPPETS.md are generated working material and
// may reference things that are not in the tree.
var checkedDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"ROADMAP.md",
	"docs/ANALYSIS.md",
	"docs/COLLECTIVES.md",
	"docs/OBSERVABILITY.md",
	"docs/PERFORMANCE.md",
	"docs/ROBUSTNESS.md",
	"docs/SERVING.md",
}

var (
	// [text](target) — skipping images and code spans is handled below.
	linkRe    = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	headingRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)

	// An inline `code span`, and a repo path named inside code:
	// internal/…, cmd/… or examples/…, bare or as ./cmd/….
	codeSpanRe = regexp.MustCompile("`[^`]+`")
	codePathRe = regexp.MustCompile(`(?:^|[^\w./-]|\./)((?:internal|cmd|examples)(?:/[\w.-]+)+)`)
)

// splitFences separates a markdown file's ``` fenced blocks from the
// rest of its text.
func splitFences(doc string) (prose, fenced string) {
	var text, code []string
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			inFence = !inFence
		case inFence:
			code = append(code, line)
		default:
			text = append(text, line)
		}
	}
	return strings.Join(text, "\n"), strings.Join(code, "\n")
}

// slugify reduces a heading to its GitHub anchor: lowercase, punctuation
// stripped, spaces to hyphens.
func slugify(heading string) string {
	// Inline code and emphasis markers do not survive into anchors.
	heading = strings.NewReplacer("`", "", "*", "", "_", " ").Replace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(heading)) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		case r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchorsOf returns the set of heading anchors a markdown file defines.
func anchorsOf(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	anchors := make(map[string]bool)
	for _, m := range headingRe.FindAllStringSubmatch(string(data), -1) {
		anchors[slugify(m[1])] = true
	}
	return anchors
}

func TestDocCrossReferences(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, doc := range checkedDocs {
		path := filepath.Join(root, filepath.FromSlash(doc))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: listed in checkedDocs but unreadable: %v", doc, err)
			continue
		}
		// Example links inside ``` fences are illustrative, not navigable.
		text, _ := splitFences(string(data))
		for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external
			}
			file, anchor, _ := strings.Cut(target, "#")
			// Resolve relative to the containing file, like a renderer.
			resolved := path
			if file != "" {
				resolved = filepath.Join(filepath.Dir(path), filepath.FromSlash(file))
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: link target %q does not exist", doc, target)
					continue
				}
			}
			if anchor == "" {
				continue
			}
			if !strings.HasSuffix(resolved, ".md") {
				continue // anchors only checked in markdown targets
			}
			if !anchorsOf(t, resolved)[anchor] {
				t.Errorf("%s: link %q: no heading in %s slugifies to %q",
					doc, target, filepath.Base(resolved), anchor)
			}
		}
	}
}

// A doc that tells the reader to look at, or run, a package or file that
// no longer exists is as broken as a dead link. Every repo path named in
// code — a fenced block or an inline span — must be a directory or a .go
// file. ROADMAP.md names planned and deleted paths on purpose.
func TestDocPathsExist(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, doc := range checkedDocs {
		if doc == "ROADMAP.md" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(doc)))
		if err != nil {
			t.Errorf("%s: listed in checkedDocs but unreadable: %v", doc, err)
			continue
		}
		prose, fenced := splitFences(string(data))
		code := append(codeSpanRe.FindAllString(prose, -1), fenced)
		for _, c := range code {
			for _, m := range codePathRe.FindAllStringSubmatch(c, -1) {
				path := strings.TrimRight(m[1], ".")
				fi, err := os.Stat(filepath.Join(root, filepath.FromSlash(path)))
				if err != nil || !fi.IsDir() && !strings.HasSuffix(path, ".go") {
					t.Errorf("%s: names %s, which is neither a directory nor a .go file", doc, path)
				}
			}
		}
	}
}
