package main

import "fmt"

// metricDef names one reported metric and its unit; BENCHMARK.json
// lists the same names and units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a user of the library
// or the server sees them. fail_frac is printed beside them, but the
// result line carries failures as its attempted and failed counts.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, one group per layer. Every
// traced run measures all of them; the runtime and trace groups come
// from the selected workload's own ops.
var perLayer = []metricDef{
	{"matrix.gflops", "GFLOP/s"},
	{"matrix.serial_gflops", "GFLOP/s"},
	{"matrix.parallel_speedup", "x"},
	{"matrix.flops_per_op", "count"},
	{"matrix.bytes_per_op", "bytes"},
	{"matrix.block_gflops", "GFLOP/s"},
	{"matrix.est_ms", "ms"},
	{"matrix.share", "fraction"},
	{"shm.overhead_ms", "ms"},
	{"simulator.cell_ms", "ms"},
	{"simulator.host_us_per_msg", "us"},
	{"simulator.msgs_per_op", "count"},
	{"simulator.words_per_op", "count"},
	{"des.cell_ms", "ms"},
	{"des.systolic_ms", "ms"},
	{"des.fiber_ms", "ms"},
	{"sweep.self_ms", "ms"},
	{"sweep.matgen_ms", "ms"},
	{"sweep.worker_util", "fraction"},
	{"sweep.longest_cell_frac", "fraction"},
	{"sweep.cells_per_op", "count"},
	{"sweep.ran_per_op", "count"},
	{"sweep.cold_ms", "ms"},
	{"server.submit_ms_hit", "ms"},
	{"server.wait_ms_hit", "ms"},
	{"server.result_ms_hit", "ms"},
	{"server.submit_ms_miss", "ms"},
	{"server.wait_ms_miss", "ms"},
	{"server.result_ms_miss", "ms"},
	{"server.http_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.cache_hit_frac", "fraction"},
	{"server.cache_lookups_per_op", "count"},
	{"server.sse_events_per_op", "count"},
	{"server.result_bytes_per_op", "bytes"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// collect builds the result metrics for defs from values; a missing
// value is a bug in the benchmark.
func collect(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
