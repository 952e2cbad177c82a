package measure

import (
	"testing"

	"repro/internal/hdl"
)

func benchDesign(b *testing.B) *hdl.Design {
	b.Helper()
	d, err := hdl.ParseDesign(map[string]string{"b.v": replicatedDesign})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkMinimizeParams(b *testing.B) {
	b.ReportAllocs()
	d := benchDesign(b)
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeParamsN(d, "quad", 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeasureComponentWithAccounting(b *testing.B) {
	b.ReportAllocs()
	d := benchDesign(b)
	for i := 0; i < b.N; i++ {
		if _, err := MeasureComponent(d, "quad", true, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
