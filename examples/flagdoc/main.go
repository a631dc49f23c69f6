// Command flagdoc keeps the flag tables in docs/OPERATIONS.md in lockstep
// with the serving binaries' actual -h output, so the operator's manual
// cannot silently drift from the code. It runs each binary with -h (via
// go run, from the repo root), parses the standard flag-package usage
// listing into a markdown table, and splices it between that binary's
// marker comments:
//
//	<!-- BEGIN flagdoc:hybridnetd -->
//	...generated table...
//	<!-- END flagdoc:hybridnetd -->
//
// Default mode checks and exits 1 on drift (the CI docs job); -write
// regenerates the tables in place:
//
//	go run ./examples/flagdoc            # check (CI)
//	go run ./examples/flagdoc -write     # update docs/OPERATIONS.md
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
)

// targets are the binaries (or subcommands — args run before -h) whose
// flags the manual documents.
var targets = []struct {
	name, pkg string
	args      []string
}{
	{name: "hybridnetd", pkg: "repro/cmd/hybridnetd"},
	{name: "hybridnet-router", pkg: "repro/cmd/hybridnet-router"},
	{name: "hybridnet-train", pkg: "repro/cmd/hybridnet", args: []string{"train"}},
}

func main() {
	doc := flag.String("doc", "docs/OPERATIONS.md", "manual to check or update (relative to the repo root)")
	write := flag.Bool("write", false, "rewrite the flag tables instead of checking them")
	flag.Parse()
	if err := run(*doc, *write); err != nil {
		fmt.Fprintln(os.Stderr, "flagdoc:", err)
		os.Exit(1)
	}
}

func run(docPath string, write bool) error {
	content, err := os.ReadFile(docPath)
	if err != nil {
		return fmt.Errorf("read %s (run from the repo root): %w", docPath, err)
	}
	updated := string(content)
	for _, t := range targets {
		usage, err := helpOutput(t.pkg, t.args)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		table := renderTable(parseUsage(usage))
		updated, err = splice(updated, t.name, table)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
	}
	if updated == string(content) {
		fmt.Printf("flagdoc: %s flag tables are in sync\n", docPath)
		return nil
	}
	if write {
		if err := os.WriteFile(docPath, []byte(updated), 0o644); err != nil {
			return err
		}
		fmt.Printf("flagdoc: rewrote flag tables in %s\n", docPath)
		return nil
	}
	return fmt.Errorf("%s flag tables drifted from -h output; run `go run ./examples/flagdoc -write`", docPath)
}

// helpOutput captures a binary's flag usage listing, optionally through a
// subcommand (e.g. `hybridnet train -h`). The flag package prints it to
// stderr; every documented target exits 0 on -h.
func helpOutput(pkg string, args []string) (string, error) {
	argv := append(append([]string{"run", pkg}, args...), "-h")
	cmd := exec.Command("go", argv...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go run %s %s -h: %v\n%s", pkg, strings.Join(args, " "), err, out)
	}
	return string(out), nil
}

// flagRow is one parsed flag from the usage listing.
type flagRow struct {
	name, typ, def, desc string
}

var (
	flagLine = regexp.MustCompile(`^  -(\S+)(?: (\S+))?$`)
	defaultR = regexp.MustCompile(`\s*\(default (.*)\)$`)
)

// parseUsage walks the standard flag-package listing: a two-space-indented
// "-name type" line followed by tab-indented description lines, with the
// default folded into the description tail.
func parseUsage(usage string) []flagRow {
	var rows []flagRow
	for _, line := range strings.Split(usage, "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			typ := m[2]
			if typ == "" {
				typ = "bool" // boolean flags print no type token
			}
			rows = append(rows, flagRow{name: m[1], typ: typ})
			continue
		}
		if len(rows) == 0 {
			continue
		}
		trimmed := strings.TrimLeft(line, " \t")
		if trimmed == "" || trimmed == line { // not an indented description line
			continue
		}
		r := &rows[len(rows)-1]
		if m := defaultR.FindStringSubmatch(trimmed); m != nil {
			r.def = strings.Trim(m[1], `"`)
			trimmed = defaultR.ReplaceAllString(trimmed, "")
		}
		if r.desc != "" {
			r.desc += " "
		}
		r.desc += trimmed
	}
	return rows
}

func renderTable(rows []flagRow) string {
	var b strings.Builder
	b.WriteString("| Flag | Type | Default | Description |\n")
	b.WriteString("|------|------|---------|-------------|\n")
	for _, r := range rows {
		def := r.def
		if def == "" {
			def = "—"
		} else {
			def = "`" + def + "`"
		}
		fmt.Fprintf(&b, "| `-%s` | %s | %s | %s |\n",
			r.name, r.typ, def, strings.ReplaceAll(r.desc, "|", "\\|"))
	}
	return b.String()
}

// splice replaces the table between a target's BEGIN/END markers.
func splice(doc, name, table string) (string, error) {
	begin := fmt.Sprintf("<!-- BEGIN flagdoc:%s -->", name)
	end := fmt.Sprintf("<!-- END flagdoc:%s -->", name)
	i := strings.Index(doc, begin)
	j := strings.Index(doc, end)
	if i < 0 || j < 0 || j < i {
		return "", fmt.Errorf("markers %q/%q not found in order", begin, end)
	}
	return doc[:i+len(begin)] + "\n" + table + doc[j:], nil
}
