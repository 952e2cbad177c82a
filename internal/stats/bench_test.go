package stats

import "testing"

func BenchmarkNelderMeadRosenbrock(b *testing.B) {
	b.ReportAllocs()
	f := func(x []float64) float64 {
		a := 1 - x[0]
		c := x[1] - x[0]*x[0]
		return a*a + 100*c*c
	}
	for i := 0; i < b.N; i++ {
		Minimize(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 5000})
	}
}

func BenchmarkLognormalQuantile(b *testing.B) {
	b.ReportAllocs()
	l := NewLognormal(0, 0.46)
	for i := 0; i < b.N; i++ {
		l.Quantile(0.95)
	}
}

func BenchmarkOLS(b *testing.B) {
	b.ReportAllocs()
	n, p := 100, 4
	x := NewMatrix(n, p)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			x.Set(i, j, float64((i*31+j*17)%50))
		}
		y[i] = float64(i % 23)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OLS(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
