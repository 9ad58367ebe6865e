package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"mictrend/internal/obs"
)

var workloads = []string{"scan-seasonal", "corpus-bulk", "serve-ingest"}

func smallConfig(t *testing.T, name string) config {
	return config{workload: name, seed: 3, scale: "small", workdir: t.TempDir(), workers: 2}
}

// TestWrongReferenceReportsFailure flips one selection in each workload's
// reference and requires the next iteration to count it as a failure.
func TestWrongReferenceReportsFailure(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(smallConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.generate(); err != nil {
				t.Fatal(err)
			}
			if err := w.reference(); err != nil {
				t.Fatal(err)
			}
			ok, err := w.iterate(nil)
			if err != nil {
				t.Fatal(err)
			}
			if ok.failed != 0 {
				t.Fatalf("true reference: %d failures: %v", ok.failed, ok.failures)
			}

			ref := referenceOf(w)
			for key := range ref {
				ref[key]++ // one flipped selection
				break
			}
			it, err := w.iterate(nil)
			if err != nil {
				t.Fatal(err)
			}
			if it.failed == 0 {
				t.Fatal("a wrong reference produced no failure")
			}
			var out bytes.Buffer
			if err := report(&out, []iteration{it}, endToEndMetrics([]iteration{it}, 1), endToEnd); err != nil {
				t.Fatal(err)
			}
			res := lastResult(t, out.String())
			if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
				t.Fatalf("result %+v does not report the failure", res)
			}
			if strings.Contains(out.String(), " error_rate=0 ") {
				t.Fatalf("error rate printed as zero:\n%s", out.String())
			}
		})
	}
}

func referenceOf(w workload) map[string]int {
	switch w := w.(type) {
	case *batch:
		return w.ref
	case *serveIngest:
		return w.ref
	}
	panic("unknown workload type")
}

// TestSmokeEveryMetricOnce runs each workload small, untraced and traced,
// and requires every metric BENCHMARK.json names to appear exactly once
// with its unit, both in the JSON result and in the printed table.
func TestSmokeEveryMetricOnce(t *testing.T) {
	spec := readSpec(t)
	for _, name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", trace,
					"--scale", "small", "--workdir", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				text := out.String()
				lines := strings.Split(strings.TrimSpace(text), "\n")
				last := lines[len(lines)-1]
				res := lastResult(t, text)
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("smoke run not correct: %s", last)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if n := strings.Count(last, `"`+m.Name+`"`); n != 1 {
						t.Errorf("metric %s appears %d times in the result line", m.Name, n)
					}
					if n := countTableRows(lines, m.Name, m.Unit); n != 1 {
						t.Errorf("metric %s appears %d times in the table", m.Name, n)
					}
				}
			})
		}
	}
}

func countTableRows(lines []string, name, unit string) int {
	n := 0
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 4 && f[0] == "#" && f[1] == name && f[3] == unit {
			n++
		}
	}
	return n
}

// TestSpecMatchesProgram pins BENCHMARK.json's metric lists to the
// program's.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloads[i])
		}
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestServeSteps cuts one month's synthetic lineage into its steps: each
// step must come from the span its name says, not from the lineage span
// that happens to share the name.
func TestServeSteps(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	span := func(cat, name string, month, from, to int) obs.SpanEvent {
		return obs.SpanEvent{Cat: cat, Name: name, Month: month, Start: at(from), Duration: at(to).Sub(at(from))}
	}
	spans := []obs.SpanEvent{
		span("serve", "serve/queue", 4, 0, 1),
		span("serve", "serve/fold", 4, 1, 10),        // pickup → month file durable
		span("em", "em/month", 4, 2, 7),              // the month's fit
		span("em", "em/month", 3, 2, 5),              // a refit of another month
		span("serve", "serve/checkpoint", 4, 10, 12), // month file → WAL durable
		span("serve", "serve/wal", 4, 12, 50),        // WAL → publish
		span("stage", "stage/detect", -1, 20, 45),
		span("stage", "stage/detect", -1, 60, 70), // another fold's
		span("serve", "serve/publish", 4, 50, 50),
	}
	got := serveSteps(spans)
	want := map[string]float64{"queue": 1, "fold": 6, "checkpoint": 3, "wal": 2, "detect": 25, "publish": 5}
	for step, v := range want {
		if len(got[step]) != 1 || got[step][0] != v {
			t.Errorf("%s: got %v ms, want [%v]", step, got[step], v)
		}
	}
}
