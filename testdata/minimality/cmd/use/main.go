// Command use is the fixture's program: its uses and sets are the ones
// the gate counts.
package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() {
	a.Live()
	value := a.T{}.Value
	value()
	a.T.Expr(a.T{})

	o := new(a.Opts)
	o.Inc++
	p := &o.Addr
	*p = 1
	o.Nest.G += 1
	fill(o, 0, 1)
	fmt.Println(o.R, a.Origin.A)
}

func fill(o *a.Opts, i, v int) {
	o.Elems[i] = v
}
