// Command ctcpasm assembles, lists and functionally runs TRISC-64 assembly
// source.
//
// Usage:
//
//	ctcpasm prog.s                 # assemble, report sizes
//	ctcpasm -d prog.s              # assemble and print the listing
//	ctcpasm -run prog.s            # assemble and execute functionally
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ctcp/internal/asm"
	"ctcp/internal/emu"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes to stdout and stderr,
// and returns the exit code (2 for a usage error, 1 for a failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ctcpasm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dis    = fs.Bool("d", false, "print the listing of the assembled program instead of its sizes")
		exec   = fs.Bool("run", false, "execute the program functionally after assembling")
		budget = fs.Uint64("insts", 10_000_000, "instruction budget for -run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// complain reports on stderr, best effort: the exit code it returns
	// already says what happened.
	complain := func(code int, a ...any) int {
		fmt.Fprintln(stderr, a...) //ctcp:lint-ok writecheck -- best-effort diagnostic; the exit code carries the failure
		return code
	}
	if fs.NArg() != 1 {
		return complain(2, "usage: ctcpasm [-d] [-run] [-insts N] file.s")
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return complain(1, "ctcpasm:", err)
	}
	p, err := asm.Assemble(string(src))
	if err != nil {
		return complain(1, "ctcpasm:", err)
	}
	var out strings.Builder
	if *dis {
		out.WriteString(asm.Disassemble(p))
	} else {
		fmt.Fprintf(&out, "text %d instructions, data %d bytes, entry %#x\n",
			len(p.Text), len(p.Data), p.Entry)
	}
	if *exec {
		m := emu.New(p)
		n, err := m.Run(*budget)
		if err != nil {
			return complain(1, "ctcpasm:", err)
		}
		fmt.Fprintf(&out, "executed %d instructions, halted=%v\n", n, m.Halted())
		if len(m.OutValues) > 0 {
			fmt.Fprintf(&out, "out values: %v (checksum %#x)\n", m.OutValues, m.OutHash)
		}
	}
	if _, err := io.WriteString(stdout, out.String()); err != nil {
		return complain(1, "ctcpasm:", err)
	}
	return 0
}
