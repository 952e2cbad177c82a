package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteCSV writes components as CSV with the header
//
//	project,component,effort,<metric...>
//
// Metric columns are the union of all metrics present, sorted by name,
// so the output is deterministic. Missing metric values are written as
// empty fields.
func WriteCSV(w io.Writer, comps []Component) error {
	metricSet := map[Metric]bool{}
	for _, c := range comps {
		for m := range c.Metrics {
			metricSet[m] = true
		}
	}
	metrics := make([]Metric, 0, len(metricSet))
	for m := range metricSet {
		metrics = append(metrics, m)
	}
	sort.Slice(metrics, func(i, j int) bool { return metrics[i] < metrics[j] })

	cw := csv.NewWriter(w)
	header := []string{"project", "component", "effort"}
	for _, m := range metrics {
		header = append(header, string(m))
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	for _, c := range comps {
		row := []string{c.Project, c.Name, formatFloat(c.Effort)}
		for _, m := range metrics {
			if v, ok := c.Metrics[m]; ok {
				row = append(row, formatFloat(v))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write row for %s: %w", c.Label(), err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ReadCSV parses a measurement database produced by WriteCSV (or
// hand-written in the same shape). The first three columns must be
// project, component, and effort; every further column is treated as a
// metric named by its header. Empty metric cells are omitted from the
// component's metric map.
func ReadCSV(r io.Reader) ([]Component, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: parse csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: empty csv")
	}
	header := records[0]
	if len(header) < 3 || header[0] != "project" || header[1] != "component" || header[2] != "effort" {
		return nil, fmt.Errorf("dataset: csv header must start with project,component,effort; got %v", header)
	}
	metrics := make([]Metric, 0, len(header)-3)
	for _, h := range header[3:] {
		metrics = append(metrics, Metric(h))
	}
	comps := make([]Component, 0, len(records)-1)
	for rowNum, rec := range records[1:] {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: row %d has %d fields, want %d", rowNum+2, len(rec), len(header))
		}
		eff, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d: bad effort %q: %w", rowNum+2, rec[2], err)
		}
		c := Component{
			Project: rec[0],
			Name:    rec[1],
			Effort:  eff,
			Metrics: make(map[Metric]float64, len(metrics)),
		}
		for i, m := range metrics {
			cell := rec[3+i]
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d: bad %s value %q: %w", rowNum+2, m, cell, err)
			}
			c.Metrics[m] = v
		}
		comps = append(comps, c)
	}
	return comps, nil
}

// Projects returns the distinct project names in comps, in first-seen
// order.
func Projects(comps []Component) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range comps {
		if !seen[c.Project] {
			seen[c.Project] = true
			out = append(out, c.Project)
		}
	}
	return out
}
