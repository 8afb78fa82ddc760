package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFile checks BENCHMARK.json against the harness: the caps,
// the name rules, and that it lists exactly the workloads and metrics the
// harness runs and reports.
func TestBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	var wl, e2e, layer []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the harness", w.Name)
		}
	}
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
	}
	for _, name := range slices.Concat(wl, e2e, layer) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	if len(workloads) != len(wl) {
		t.Errorf("harness has %d workloads, BENCHMARK.json %d", len(workloads), len(wl))
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end-to-end metrics %v, harness reports %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per-layer metrics %v, harness reports %v", layer, perLayer)
	}
}

// TestWorkloads runs every workload for one second against a freshly built
// schedserve (kernel traced, the others untraced) and checks the report:
// outputs correct, every metric of BENCHMARK.json printed with its unit, a
// trace whose spans all have their parent, and no temp dir left behind.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds schedserve and runs every workload")
	}
	bf := loadBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range bf.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units[m.Name] = m.Unit
	}
	bin := filepath.Join(t.TempDir(), "schedserve")
	if out, err := exec.Command("go", "build", "-o", bin, "oneport/cmd/schedserve").CombinedOutput(); err != nil {
		t.Fatalf("build schedserve: %v\n%s", err, out)
	}
	for _, w := range bf.Workloads {
		traced := w.Name == "kernel"
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			var out bytes.Buffer
			code := run(&out, w.Name, 1, 1, traced, bin, dir)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("exit %d, last line is not a report: %v\n%s", code, err, out.String())
			}
			if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("exit %d, report %+v\n%s", code, rep, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%d metrics printed, want %d", len(rep.Metrics), len(want))
			}
			for _, name := range want {
				if m, ok := rep.Metrics[name]; !ok || m.Unit != units[name] {
					t.Errorf("metric %s: printed %+v, want unit %q", name, m, units[name])
				}
			}
			if ents, err := os.ReadDir(filepath.Join(dir, "tmp")); err != nil || len(ents) != 0 {
				t.Errorf("temp dir not empty after the run: %v %v", ents, err)
			}
			if traced {
				checkTrace(t, filepath.Join(dir, "trace", w.Name+"-seed1.json"))
			}
		})
	}
}

// checkTrace parses a written trace and checks that every span's parent is
// a span of the trace.
func checkTrace(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	ids := map[int]bool{}
	for _, ev := range tf.TraceEvents {
		ids[ev.Args["id"]] = true
	}
	for _, ev := range tf.TraceEvents {
		if p := ev.Args["parent"]; p != 0 && !ids[p] {
			t.Fatalf("span %s (id %d) has no parent %d", ev.Name, ev.Args["id"], p)
		}
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no spans")
	}
}
