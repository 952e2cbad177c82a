package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{200, 95, 190}, // rank 190, 10 beyond
		{199, 95, 0},   // rank 190, 9 beyond
		{1000, 99, 990},
		{999, 99, 0},
		{100, 90, 90},
		{20, 50, 10},
		{19, 50, 0},
		{5, 90, 0},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestHighestTail(t *testing.T) {
	for n, want := range map[int]float64{10000: 99.9, 1000: 99, 999: 95, 200: 95, 100: 90, 40: 75} {
		if p, ok := highestTail(n); !ok || p != want {
			t.Errorf("highestTail(%d) = %v, %v; want %v", n, p, ok, want)
		}
	}
	if p, ok := highestTail(39); ok {
		t.Errorf("highestTail(39) = %v, want none", p)
	}
}

func TestMixMedian(t *testing.T) {
	// Half the samples at 3 ms, half at 5: the pooled median sits in the
	// gap, so one fast sample slowing to 3.5 ms moves it from 4 to 4.25,
	// while the fast kind's median, and so mixMedian, stays put.
	fast, slow := []float64{3, 3, 3, 3.5}, []float64{5, 5, 5, 5}
	if m := median(append(append([]float64(nil), fast...), slow...)); m != 4.25 {
		t.Errorf("pooled median = %v, want 4.25", m)
	}
	if m := mixMedian([][]float64{fast, slow}); m != 4 {
		t.Errorf("mixMedian = %v, want 4", m)
	}
	// Weights are the kinds' sample counts; an empty kind is skipped.
	if m := mixMedian([][]float64{{1, 2, 3}, {10}, nil}); m != 4 {
		t.Errorf("mixMedian = %v, want 4", m)
	}
	if m := mixMedian(nil); m != 0 {
		t.Errorf("mixMedian(nil) = %v, want 0", m)
	}
}

func TestMedianAndChunkedRate(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	// Ten 100 ms operations then ten 1 s ones: the slices' rates are
	// 10/s and 1/s five times each, so the median rate is 5.5/s.
	var lat []float64
	for i := 0; i < 20; i++ {
		ms := 100.0
		if i >= 10 {
			ms = 1000
		}
		lat = append(lat, ms)
	}
	if r := chunkedRate(lat); r != 5.5 {
		t.Errorf("chunkedRate = %v, want 5.5", r)
	}
}
