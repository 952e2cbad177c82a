package a

import "testing"

// Uses in tests count for nothing: T.Unused and Opts.R stay reported.
func TestPlanted(t *testing.T) {
	T{}.Unused()
	if (Opts{R: 1}).R != 1 {
		t.Fatal("R")
	}
}
