package dataset

import "fmt"

// Metric identifies one of the measured per-component quantities from
// Table 3 of the paper.
type Metric string

// The metrics of Table 3. DEE1 is not a metric: it is the fitted linear
// combination w1·Stmts + w2·FanInLC (Section 5.1.1).
const (
	Stmts   Metric = "Stmts"   // number of statements in the HDL code
	LoC     Metric = "LoC"     // number of lines in the HDL code
	FanInLC Metric = "FanInLC" // total number of inputs of all logic cones
	Nets    Metric = "Nets"    // number of nets
	Freq    Metric = "Freq"    // frequency for 90nm Stratix-II FPGA (MHz)
	AreaL   Metric = "AreaL"   // logic area in µm²
	PowerD  Metric = "PowerD"  // dynamic power in mW
	PowerS  Metric = "PowerS"  // static power in µW
	AreaS   Metric = "AreaS"   // storage area in µm²
	Cells   Metric = "Cells"   // number of standard cells
	FFs     Metric = "FFs"     // number of flip-flops
)

// AllMetrics lists every Table 3 metric in the column order of Table 4.
var AllMetrics = []Metric{Stmts, LoC, FanInLC, Nets, Freq, AreaL, PowerD, PowerS, AreaS, Cells, FFs}

// Component is one data point: a named component of a project, its
// designer-reported effort, and its measured metrics.
type Component struct {
	Project string  // design team / project name (the random-effect grouping)
	Name    string  // component name within the project
	Effort  float64 // reported design effort in person-months (Table 2)
	Metrics map[Metric]float64
}

// Metric returns the value of metric m, or an error naming the missing
// component/metric pair.
func (c *Component) Metric(m Metric) (float64, error) {
	v, ok := c.Metrics[m]
	if !ok {
		return 0, fmt.Errorf("dataset: component %s-%s has no metric %q", c.Project, c.Name, m)
	}
	return v, nil
}

// Label returns "Project-Name", the row label used in Table 4.
func (c *Component) Label() string { return c.Project + "-" + c.Name }

// Paper returns the 18 components of Table 4 with the reported efforts
// of Table 2 and every published metric value. The slice is freshly
// allocated on each call so callers may mutate it.
//
// Note the two reporting quirks in the paper itself, preserved here:
// Table 2 lists the RAT-Standard effort as 0.3 person-months while
// Table 4's Effort column lists 0.6; and RAT-Sliding as 0.5 vs 1. The
// regression in Section 5 fits the Table 4 column, so that is what
// Effort carries.
func Paper() []Component {
	comps := make([]Component, len(paperRows))
	for i, r := range paperRows {
		comps[i] = Component{
			Project: r.project,
			Name:    r.name,
			Effort:  r.effort,
			Metrics: map[Metric]float64{
				Stmts:   r.stmts,
				LoC:     r.loc,
				FanInLC: r.fanInLC,
				Nets:    r.nets,
				Freq:    r.freq,
				AreaL:   r.areaL,
				PowerD:  r.powerD,
				PowerS:  r.powerS,
				AreaS:   r.areaS,
				Cells:   r.cells,
				FFs:     r.ffs,
			},
		}
	}
	return comps
}

type paperRow struct {
	project, name               string
	effort                      float64
	stmts, loc, fanInLC, nets   float64
	freq, areaL, powerD, powerS float64
	areaS, cells, ffs           float64
}

// paperRows transcribes Table 4 of the paper (column DEE1 excluded —
// DEE1 is a fitted estimate, not a measurement).
var paperRows = []paperRow{
	{"Leon3", "Pipeline", 24, 2070, 2814, 10502, 4299, 56, 50199, 80, 409, 68411, 3586, 1062},
	{"Leon3", "Cache", 6, 1172, 1092, 6325, 1980, 94, 37456, 57, 332, 12556, 3, 210},
	{"Leon3", "MMU", 6, 721, 1943, 3149, 1130, 84, 60136, 23, 287, 112765, 246, 699},
	{"Leon3", "MemCtrl", 6, 938, 1421, 2692, 853, 138, 7394, 5, 2, 11938, 704, 275},
	{"PUMA", "Fetch", 3, 586, 1490, 5192, 1292, 68, 147096, 226, 3513, 555168, 1809, 1786},
	{"PUMA", "Decode", 4, 1998, 3416, 4724, 5662, 65, 78076, 11, 526, 47604, 5189, 464},
	{"PUMA", "ROB", 4, 503, 913, 6965, 9840, 41, 82527, 733, 816, 1022, 9709, 922},
	{"PUMA", "Execute", 12, 3762, 9613, 18260, 10681, 49, 92473, 44, 1370, 119746, 10867, 1725},
	{"PUMA", "Memory", 1, 976, 2251, 5034, 1089, 60, 43418, 80, 602, 115841, 4337, 1549},
	{"IVM", "Fetch", 10, 1432, 4972, 15726, 4914, 71, 212663, 8, 2, 135074, 1859, 1661},
	{"IVM", "Decode", 2, 391, 963, 1044, 504, 104, 2022, 2, 6, 73, 2, 0},
	{"IVM", "Rename", 4, 566, 2519, 3307, 1134, 159, 70146, 1, 1, 26740, 121, 510},
	{"IVM", "Issue", 4, 624, 2704, 8063, 4603, 60, 90388, 2, 1, 68667, 3414, 2729},
	{"IVM", "Execute", 3, 961, 4083, 11045, 4476, 91, 619561, 5, 5, 154655, 940, 0},
	{"IVM", "Memory", 10, 2240, 5308, 19021, 23247, 54, 267753, 73, 2, 625952, 12050, 2510},
	{"IVM", "Retire", 5, 1021, 2278, 6635, 3357, 71, 36100, 2, 1, 50375, 1923, 924},
	{"RAT", "Standard", 0.6, 64, 250, 3889, 2905, 137, 34254, 4, 275, 17603, 2596, 288},
	{"RAT", "Sliding", 1, 78, 334, 5586, 4936, 119, 52210, 10, 459, 60713, 4507, 612},
}

// PaperDEE1Column returns the DEE1 estimates printed in Table 4 (the
// paper's own fitted values), keyed by component label. These are used
// only for cross-checking our fit in tests and EXPERIMENTS.md, never as
// inputs.
func PaperDEE1Column() map[string]float64 {
	return map[string]float64{
		"Leon3-Pipeline": 12.8, "Leon3-Cache": 7.3, "Leon3-MMU": 4.4,
		"Leon3-MemCtrl": 5.4, "PUMA-Fetch": 2.2, "PUMA-Decode": 6.2,
		"PUMA-ROB": 2.2, "PUMA-Execute": 12.6, "PUMA-Memory": 3.3,
		"IVM-Fetch": 8, "IVM-Decode": 1.7, "IVM-Rename": 2.7,
		"IVM-Issue": 3.6, "IVM-Execute": 5.4, "IVM-Memory": 11.6,
		"IVM-Retire": 5, "RAT-Standard": 0.7, "RAT-Sliding": 1,
	}
}

// PaperSigmaEps returns the per-estimator σε from the penultimate row
// of Table 4 (mixed-effects fit, productivity adjustment enabled).
func PaperSigmaEps() map[string]float64 {
	return map[string]float64{
		"DEE1": 0.46, "Stmts": 0.50, "LoC": 0.55, "FanInLC": 0.55,
		"Nets": 0.67, "Freq": 0.94, "AreaL": 1.23, "PowerD": 1.34,
		"PowerS": 1.44, "AreaS": 2.07, "Cells": 2.09, "FFs": 2.14,
	}
}

// PaperSigmaEpsNoRho returns the per-estimator σε from the last row of
// Table 4 (ρi = 1: no productivity adjustment).
func PaperSigmaEpsNoRho() map[string]float64 {
	return map[string]float64{
		"DEE1": 0.53, "Stmts": 0.60, "LoC": 0.69, "FanInLC": 0.82,
		"Nets": 1.08, "Freq": 1.12, "AreaL": 1.35, "PowerD": 1.82,
		"PowerS": 3.21, "AreaS": 2.07, "Cells": 2.55, "FFs": 2.18,
	}
}

// PaperSigmaEpsNoAccounting returns the σε values the paper quotes in
// Section 5.3 for measurements gathered *without* the accounting
// procedure (Figure 6). Only the two values stated numerically in the
// text are included; the rest of Figure 6 is reproduced with our own
// synthetic-design pipeline.
func PaperSigmaEpsNoAccounting() map[string]float64 {
	return map[string]float64{"FanInLC": 1.18, "Nets": 1.07}
}

// DesignCharacteristic is one row of Table 1.
type DesignCharacteristic struct {
	Characteristic string
	Leon3          string
	PUMA           string
	IVM            string
}

// Table1 returns the processor characteristics of Table 1.
func Table1() []DesignCharacteristic {
	return []DesignCharacteristic{
		{"ISA", "Sparc V8", "PPC subset", "Alpha subset"},
		{"Execution", "In-order", "Out-of-order", "Out-of-order"},
		{"Pipeline stages", "7", "9", "7"},
		{"FE, IS width", "1, 1", "2, 2", "8, 4"},
		{"DI, RE width", "1, 1", "4, 2", "4, 8"},
		{"Branch predictor", "None", "Gshare", "Tournament"},
		{"Caches", "Blocking", "Non-block", "Not modeled"},
		{"Multiproc. support", "Yes", "No", "No"},
		{"HDL Language", "VHDL-89", "Verilog-95", "Verilog-95"},
	}
}

// MetricDescription is one row of Table 3.
type MetricDescription struct {
	Metric      Metric
	Description string
	Tool        string // the tool the paper used; our substitute is in parentheses
}

// Table3 returns the metric definitions of Table 3, annotated with the
// reproduction's substitute measurement path.
func Table3() []MetricDescription {
	return []MetricDescription{
		{FanInLC, "Total number of inputs of all logic cones", "Synplify Pro (internal/fpga + internal/cones)"},
		{LoC, "Number of lines in the HDL code", "- (internal/srcmetrics)"},
		{Stmts, "Number of statements in the HDL code", "- (internal/srcmetrics)"},
		{Nets, "Number of nets", "Design Compiler (internal/synth)"},
		{Cells, "Number of standard cells", "Design Compiler (internal/synth)"},
		{AreaL, "Logic area in µm²", "Design Compiler (internal/synth)"},
		{AreaS, "Storage area in µm²", "Design Compiler (internal/synth)"},
		{PowerD, "Dynamic power in mW", "Design Compiler (internal/power)"},
		{PowerS, "Static power in µW", "Design Compiler (internal/synth)"},
		{Freq, "Frequency for 90nm Stratix-II EP2S90 FPGA", "Synplify Pro (internal/fpga)"},
		{FFs, "Number of flip-flops", "Synplify Pro (internal/synth)"},
	}
}
