package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the benchmark must agree with.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declaredMetric        `json:"end_to_end"`
	PerLayer  []declaredMetric        `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// TestSmoke builds the benchmark and the server as run.sh does, runs every
// workload at -short sizing, untraced and traced, and holds the output to
// BENCHMARK.json: each declared metric printed exactly once with its unit,
// nothing undeclared, no failed op.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	sameTable(t, "end_to_end", decl.EndToEnd, endToEnd, true)
	sameTable(t, "per_layer", decl.PerLayer, perLayer, false)
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(specs))
	}

	dir := t.TempDir()
	bench, kvd := filepath.Join(dir, "qsense-benchmark"), filepath.Join(dir, "qsense-kvd")
	for bin, pkg := range map[string]string{bench: ".", kvd: "qsense/cmd/qsense-kvd"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	for i, w := range decl.Workloads {
		if w.Name != specs[i].name {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, w.Name, specs[i].name)
		}
		for trace, want := range map[string][]declaredMetric{"0": decl.EndToEnd, "1": decl.PerLayer} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				out, err := exec.Command(bench, "-kvd", kvd, "-short", "--workload", w.Name,
					"--seed", "7", "--seconds", "2", "--trace", trace).Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				checkOutput(t, w.Name, string(out), want)
			})
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameTable holds a metric table of the program to its BENCHMARK.json twin.
func sameTable(t *testing.T, what string, decl []declaredMetric, defs []metricDef, bounds bool) {
	t.Helper()
	if len(decl) != len(defs) {
		t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark has %d", what, len(decl), len(defs))
	}
	for i, d := range defs {
		better := "higher"
		if d.lower {
			better = "lower"
		}
		j := decl[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != better || (bounds && j.Bound != d.bound) {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark has %+v", what, i, j, d)
		}
		if !nameRE.MatchString(d.name) {
			t.Errorf("%s: metric name %q is outside the allowed alphabet", what, d.name)
		}
	}
}

// checkOutput holds one run's standard output to the metrics it must carry.
func checkOutput(t *testing.T, workload, out string, want []declaredMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rep struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the report: %v\n%s", err, lines[len(lines)-1])
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("the report carries %d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok || got.Value == nil || got.Unit != m.Unit {
			t.Errorf("metric %s: report has %+v, want a value in %s", m.Name, got, m.Unit)
		}
		printed := 0
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) == 4 && f[0] == workload && f[1] == m.Name && f[3] == m.Unit {
				printed++
			}
		}
		if printed != 1 {
			t.Errorf("metric %s is printed %d times by name, want once", m.Name, printed)
		}
	}
}
