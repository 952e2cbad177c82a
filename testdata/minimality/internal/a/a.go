// Package a plants one case of each rule of the minimality gate; the
// comment on each name says whether the gate must report it.
package a

// Dead has no caller: reported.
func Dead() {}

// Live is called by the program: not reported.
func Live() {}

// T carries the method cases.
type T struct{}

// Unused is called only from a test: reported.
func (T) Unused() {}

// Value is used only as a method value: not reported.
func (T) Value() {}

// Expr is used only as a method expression: not reported.
func (T) Expr() {}

// Opts carries the field cases. Only R is reported: the program reads
// it and only a test sets it.
type Opts struct {
	R     int
	Inc   int   // set by o.Inc++
	Addr  int   // set through &o.Addr
	Nest  Inner // set by the write to o.Nest.G
	Elems []int // set by o.Elems[i] = v
}

// Inner is the nested struct whose field write also sets Opts.Nest.
type Inner struct{ G int }

// Pair is set only by the unkeyed literal of Origin, which sets every
// field.
type Pair struct{ A, B int }

// Origin is read by the program.
var Origin = Pair{0, 0}
