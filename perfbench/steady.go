package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steadyReport runs the workload k times, each in a child process of
// its own with seed, seed+1, ..., and prints for every metric its
// median, quartiles and spread: (q3 - q1) / median, with quartiles as
// Python's statistics.quantiles(values, n=4) computes them. The spread
// of each end-to-end metric must stay below its bound in
// BENCHMARK.json.
func steadyReport(w io.Writer, name string, seed int64, seconds float64, trace, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: outputs are not correct", s)
		}
		var parts []string
		for _, n := range sortedKeys(res.Metrics) {
			m := res.Metrics[n]
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
			parts = append(parts, fmt.Sprintf("%s=%.6g", n, m.Value))
		}
		fmt.Fprintf(w, "seed %d: %s\n", s, strings.Join(parts, " "))
	}
	fmt.Fprintf(w, "%s, %d runs, seeds %d..%d, %gs each\n", name, k, seed, seed+int64(k)-1, seconds)
	fmt.Fprintf(w, "%-36s %8s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, n := range sortedKeys(values) {
		q1, q2, q3 := quartiles(values[n])
		spread := 0.0
		if q2 != 0 {
			spread = math.Abs(q3-q1) / math.Abs(q2)
		}
		fmt.Fprintf(w, "%-36s %8s %12.6g %12.6g %12.6g %7.2f%%\n", n, units[n], q2, q1, q3, 100*spread)
	}
	return nil
}
