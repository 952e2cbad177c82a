package elab

import (
	"fmt"

	"repro/internal/hdl"
)

// Lazy error types for the constraint checks that probe elaborations
// hit routinely: the scaling-rule search drives parameters until
// something breaks and then discards the message, so these defer all
// formatting to Error() — constructing one costs a single allocation
// (two for a positioned select error) instead of a fmt.Errorf chain. The rendered text is pinned
// byte-identical to the fmt.Errorf forms they replaced
// (TestCacheErrorParity compares it across elaboration modes).

type rangeError struct {
	pos      hdl.Pos
	msb, lsb int64
	tooWide  bool
}

func (e *rangeError) Error() string {
	if e.tooWide {
		return fmt.Sprintf("%s: range [%d:%d] too wide (%d bits)", e.pos, e.msb, e.lsb, e.msb-e.lsb+1)
	}
	return fmt.Sprintf("%s: degenerate range [%d:%d]", e.pos, e.msb, e.lsb)
}

// bitIndexError and partSelectError report a constant select outside
// its net (BitOffset, PartRange); synthesis and the interpreter return
// them as they are.
type bitIndexError struct {
	idx  int64
	name string
}

func (e *bitIndexError) Error() string {
	return fmt.Sprintf("bit index %d out of range for %q", e.idx, e.name)
}

type partSelectError struct {
	msb, lsb int64
	name     string
}

func (e *partSelectError) Error() string {
	return fmt.Sprintf("part select [%d:%d] out of range for %q", e.msb, e.lsb, e.name)
}

// selectError is a select error found by the static range check: it
// adds the source position and the net's width.
type selectError struct {
	pos   hdl.Pos
	width int
	err   error
}

func (e *selectError) Error() string {
	return fmt.Sprintf("%s: %s (width %d)", e.pos, e.err, e.width)
}

func (e *selectError) Unwrap() error { return e.err }

// portError prefixes a range error with the port it occurred on.
type portError struct {
	path, port string
	err        error
}

func (e *portError) Error() string {
	return fmt.Sprintf("elab: port %s.%s: %s", e.path, e.port, e.err)
}

func (e *portError) Unwrap() error { return e.err }

// posError prefixes a range-check error with its source position.
type posError struct {
	pos hdl.Pos
	err error
}

func (e *posError) Error() string {
	return fmt.Sprintf("elab: %s: %s", e.pos, e.err)
}

func (e *posError) Unwrap() error { return e.err }
