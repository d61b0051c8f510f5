// Package cli holds what the command-line tools share: the flags more than
// one of them exposes (flags.go) and the exit-code policy. Simulation
// aborts carrying a structured *fault.FaultError — watchdog expiry,
// deadlock, unrecoverable message loss, cooperative cancellation — are
// distinguishable from ordinary failures by exit code, so scripts and CI
// drivers can branch on "the machine faulted" vs "the invocation was wrong"
// without parsing stderr.
package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"wavescalar/internal/fault"
)

// Exit codes. 2 is left to flag parsing (the flag package's convention).
const (
	ExitError = 1 // ordinary failure: bad input, I/O error, mismatch
	ExitFault = 3 // simulation aborted with a structured FaultError
)

// Code maps an error to the tool exit code.
func Code(err error) int {
	var fe *fault.FaultError
	if errors.As(err, &fe) {
		return ExitFault
	}
	return ExitError
}

// WriteDiagnostic prints the error and, when it wraps a FaultError, a
// machine-greppable one-line diagnostic of the abort.
func WriteDiagnostic(w io.Writer, tool string, err error) {
	fmt.Fprintf(w, "%s: %v\n", tool, err)
	var fe *fault.FaultError
	if !errors.As(err, &fe) {
		return
	}
	pe := "-"
	if fe.PE >= 0 {
		pe = strconv.Itoa(fe.PE)
	}
	fmt.Fprintf(w, "%s: fault diagnostic: kind=%s pe=%s cycle=%d detail=%q (exit %d)\n",
		tool, fe.Kind, pe, fe.Cycle, fe.Detail, ExitFault)
}

// Fatal is how a command dies: it runs the cleanups os.Exit would skip
// (flushing profiles, removing a pending -out temp file; nil ones are
// passed over), reports err with WriteDiagnostic and exits with Code(err).
func Fatal(tool string, err error, cleanups ...func()) {
	for _, fn := range cleanups {
		if fn != nil {
			fn()
		}
	}
	WriteDiagnostic(os.Stderr, tool, err)
	os.Exit(Code(err))
}
