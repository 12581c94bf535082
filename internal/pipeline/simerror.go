package pipeline

import (
	"fmt"
	"runtime/debug"

	"ctcp/internal/isa"
)

// SimError reports a simulation that aborted on an internal invariant
// failure (forward-progress watchdog, fill-unit assignment completeness,
// structural-parameter validation, ...). The cycle model signals such
// failures by panicking; Recover converts the panic into a *SimError at the
// run boundary so one pathological configuration cannot take down a whole
// experiment sweep.
type SimError struct {
	// Reason is the rendered panic value.
	Reason string
	// Stack is the goroutine stack captured at the recovery point.
	Stack string
}

// Error implements error.
func (e *SimError) Error() string { return "pipeline: simulation aborted: " + e.Reason }

// RunProgramErr is RunProgram with graceful degradation: a panic raised
// anywhere inside the model comes back as a *SimError instead of crashing
// the process.
func RunProgramErr(prog *isa.Program, cfg Config) (s *Stats, err error) {
	defer Recover(&err)
	return RunProgram(prog, cfg), nil
}

// Recover is the one recovery point for model panics: deferred directly,
// as defer Recover(&err), it turns a panic into a *SimError in err that
// carries the panicking goroutine's stack.
func Recover(err *error) {
	if rec := recover(); rec != nil {
		*err = &SimError{Reason: fmt.Sprint(rec), Stack: string(debug.Stack())}
	}
}
