package main

import (
	"bytes"
	"strings"
	"testing"
)

const fib = "../../internal/asm/testdata/fib.s"

// ctcpasm runs the command on args and returns its exit code and streams.
func ctcpasm(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestAssembleListRun drives the three documented uses on fib.s: the size
// report, the -d listing and a functional -run, which prints fib(18).
func TestAssembleListRun(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{fib}, []string{"text 25 instructions, data 0 bytes, entry 0x1050"}},
		{[]string{"-d", fib}, []string{"fib:\n", "recurse:\n", "  0x00001000  cmple r1, 1, r3\n", "ret (r26)"}},
		{[]string{"-run", fib}, []string{"executed 91969 instructions, halted=true", "out values: [2584]"}},
	}
	for _, c := range cases {
		code, out, errs := ctcpasm(c.args...)
		if code != 0 || errs != "" {
			t.Errorf("ctcpasm %v: exit %d, stderr %q", c.args, code, errs)
		}
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("ctcpasm %v: stdout lacks %q:\n%s", c.args, w, out)
			}
		}
	}
	if _, out, _ := ctcpasm("-d", fib); strings.Contains(out, "text 25 instructions") {
		t.Errorf("-d printed the size report:\n%s", out)
	}
}

// TestUsageErrors: an unknown flag such as -o, or a missing or extra
// operand, is a usage error (exit 2); a source that does not assemble
// fails (exit 1).
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-o", "fib.out", fib}, {}, {fib, fib}} {
		if code, _, errs := ctcpasm(args...); code != 2 || errs == "" {
			t.Errorf("ctcpasm %v: exit %d, stderr %q; want 2 and a message", args, code, errs)
		}
	}
	if code, _, errs := ctcpasm("main_test.go"); code != 1 || !strings.HasPrefix(errs, "ctcpasm: ") {
		t.Errorf("assembling Go source: exit %d, stderr %q", code, errs)
	}
}
