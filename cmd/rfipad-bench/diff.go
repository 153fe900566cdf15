package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"rfipad/internal/experiments/scenario"
)

// flattenNumbers walks an unmarshalled JSON value and collects every
// numeric leaf under its dotted path ("scale_factor",
// "per_stream.stream-00.p95_ms", "scaling.0.readings_per_sec", ...).
func flattenNumbers(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case float64:
		out[prefix] = x
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flattenNumbers(p, child, out)
		}
	case []any:
		for i, child := range x {
			flattenNumbers(fmt.Sprintf("%s.%d", prefix, i), child, out)
		}
	}
}

func loadNumbers(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	flattenNumbers("", v, out)
	return out, nil
}

// runDiff compares two bench JSON reports — the CI before/after view
// against a committed baseline. When both inputs are scenario reports
// it gates cell-by-cell on the accuracy-class fields with the given
// tolerance and fails on regression; otherwise it prints the generic
// numeric field-by-field comparison, which never fails the run.
func runDiff(oldPath, newPath string, accuracyTol float64) error {
	if scenario.IsReport(oldPath) && scenario.IsReport(newPath) {
		return runScenarioDiff(oldPath, newPath, accuracyTol)
	}
	return runNumericDiff(oldPath, newPath)
}

// runScenarioDiff is the scenario-aware arm: a per-cell table of the
// gated fields, then a verdict. Latency columns are informational —
// machine noise would make a hard latency threshold flaky — while an
// accuracy, exact-rate, recovery-rate drop or a drop-rate rise beyond
// tolerance fails the diff.
func runScenarioDiff(oldPath, newPath string, tol float64) error {
	oldRep, err := scenario.Load(oldPath)
	if err != nil {
		return err
	}
	newRep, err := scenario.Load(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("--- %s (%s) -> %s (%s), accuracy tolerance %.3f\n",
		oldPath, oldRep.Provenance.Commit, newPath, newRep.Provenance.Commit, tol)
	newCells := map[string]scenario.ScenarioResult{}
	for _, c := range newRep.Cells {
		newCells[c.Key] = c
	}
	fmt.Printf("%-40s %17s %13s %13s %13s\n",
		"cell", "accuracy", "exact", "recovery", "drop")
	for _, oc := range oldRep.Cells {
		nc, ok := newCells[oc.Key]
		if !ok {
			fmt.Printf("%-40s (missing from new report)\n", oc.Key)
			continue
		}
		fmt.Printf("%-40s %8.3f->%7.3f %6.2f->%5.2f %6.2f->%5.2f %6.3f->%5.3f\n",
			oc.Key, oc.Accuracy, nc.Accuracy, oc.ExactRate, nc.ExactRate,
			oc.RecoveryRate, nc.RecoveryRate, oc.DropRate, nc.DropRate)
	}
	regs, notes := scenario.Compare(oldRep, newRep, tol)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Println("REGRESSION:", r)
		}
		return fmt.Errorf("scenario diff: %d regression(s) beyond tolerance %.3f", len(regs), tol)
	}
	fmt.Println("scenario diff: no accuracy regressions")
	return nil
}

// runNumericDiff prints a numeric field-by-field comparison. Fields
// present on only one side are listed as added/removed; it never fails
// the run, it only reports.
func runNumericDiff(oldPath, newPath string) error {
	oldN, err := loadNumbers(oldPath)
	if err != nil {
		return err
	}
	newN, err := loadNumbers(newPath)
	if err != nil {
		return err
	}
	keys := map[string]bool{}
	for k := range oldN {
		keys[k] = true
	}
	for k := range newN {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	fmt.Printf("--- %s -> %s\n", oldPath, newPath)
	for _, k := range sorted {
		o, haveOld := oldN[k]
		n, haveNew := newN[k]
		switch {
		case !haveOld:
			fmt.Printf("%-52s            ->%14.4g   (added)\n", k, n)
		case !haveNew:
			fmt.Printf("%-52s%14.4g ->              (removed)\n", k, o)
		case o == n:
			fmt.Printf("%-52s%14.4g\n", k, o)
		default:
			pct := ""
			if o != 0 && !math.IsInf(n/o, 0) {
				pct = fmt.Sprintf("  %+7.1f%%", (n/o-1)*100)
			}
			fmt.Printf("%-52s%14.4g ->%14.4g%s\n", k, o, n, pct)
		}
	}
	return nil
}
