// ctcplint runs the module's static analysis suite (internal/lint) over the
// whole module and reports file:line diagnostics. It exits 0 when the tree is
// clean, 1 when any diagnostic survives, 2 on a load or usage error.
//
// Usage:
//
//	ctcplint [-json] [-rules name,name] [./...]
//
// The only supported pattern is the whole module ("./..." or no argument);
// the analyzers' own Match scopes decide which packages each rule inspects.
//
// After the analyzers run, the suppression audit reports (as rule
// "suppressaudit") every //ctcp:lint-ok comment whose rule ran but matched
// no finding — stale waivers fail the lint exactly like real findings, so
// they cannot accumulate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ctcp/internal/lint"
)

// auditDoc describes the suppression audit in the usage and -list output.
const auditDoc = "stale //ctcp:lint-ok waiver (always on for the rules that ran)"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ctcplint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list registered rules and exit")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ctcplint [-json] [-rules name,name] [./...]\n\nrules:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", lint.AuditRule, auditDoc)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, arg := range fs.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(os.Stderr, "ctcplint: unsupported pattern %q (only the whole module is lintable; use ./...)\n", arg)
			return 2
		}
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(os.Stdout, "%s\t%s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stdout, "%s\t%s\n", lint.AuditRule, auditDoc)
		return 0
	}
	if *rules != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*rules, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "ctcplint: unknown rule %q (see -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	loader, err := lint.NewLoader("")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcplint: %v\n", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctcplint: %v\n", err)
		return 2
	}

	diags := lint.Run(pkgs, analyzers)
	diags = append(diags, lint.Audit(pkgs, analyzers)...)
	lint.SortDiagnostics(diags)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Column:  d.Pos.Column,
				Rule:    d.Rule,
				Message: d.Message,
			})
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "ctcplint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(os.Stdout, d.String())
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// jsonDiag is the -json output shape; stable field names are part of the
// tool's interface.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}
