//! The metrics the benchmark declares, and the result line it prints.
//!
//! Every run prints every declared metric of its mode. A per-layer metric
//! of a layer the workload never calls reads 0: that layer did no work.

use std::collections::BTreeMap;

/// `(name, unit)` of each end-to-end metric, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of each per-layer metric, from the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_s", "s"),
    ("graph.build_s", "s"),
    ("kdtree.build_s", "s"),
    ("bvh.build_s", "s"),
    ("btree.build_s", "s"),
    ("kernels.execute_s.ggnn", "s"),
    ("kernels.execute_s.flann", "s"),
    ("kernels.execute_s.bvhnn", "s"),
    ("kernels.execute_s.btree", "s"),
    ("kernels.lower_s", "s"),
    ("kernels.trace_warps", "count"),
    ("kernels.trace_ops", "count"),
    ("archive.write_s", "s"),
    ("archive.bytes_written", "bytes"),
    ("sim.run_s.ggnn", "s"),
    ("sim.run_s.flann", "s"),
    ("sim.run_s.bvhnn", "s"),
    ("sim.run_s.btree", "s"),
    ("sim.run_s.hsu", "s"),
    ("sim.run_s.base", "s"),
    ("sim.run_s.stripped", "s"),
    ("sim.ticks", "count"),
    ("sim.ns_per_tick", "ns"),
    ("sim.skip_fraction", "ratio"),
    ("sim.cycles", "cycles"),
    ("sim.hsu_speedup_geomean", "x"),
    ("l1.accesses", "count"),
    ("l1.miss_rate", "ratio"),
    ("l1.mshr_stalls", "count"),
    ("l2.accesses", "count"),
    ("l2.miss_rate", "ratio"),
    ("dram.accesses", "count"),
    ("dram.row_locality", "acc/row"),
    ("rt.warp_insts", "count"),
    ("rt.dispatch_stalls", "count"),
    ("rt.occupancy_mean", "warps"),
    ("hsu.ops_per_cycle", "ops/cycle"),
    ("hsu_speedup.ggnn", "x"),
    ("hsu_speedup.flann", "x"),
    ("hsu_speedup.bvhnn", "x"),
    ("hsu_speedup.btree", "x"),
    ("paper_gap.ggnn", "x"),
    ("paper_gap.flann", "x"),
    ("paper_gap.bvhnn", "x"),
    ("paper_gap.btree", "x"),
    ("engine.admit_us.p50", "us"),
    ("engine.admit_us.p99", "us"),
    ("engine.queue_wait_us.p50", "us"),
    ("engine.queue_wait_us.p99", "us"),
    ("engine.batch_fill", "ratio"),
    ("engine.worker_busy_ratio", "ratio"),
    ("engine.shed_ratio", "ratio"),
    ("index.batch_us.p50", "us"),
    ("index.batch_us.p99", "us"),
    ("graph.distance_tests_per_query", "count"),
    ("graph.hops_per_query", "count"),
    ("graph.recall_at_10", "ratio"),
    ("btree.nodes_per_query", "count"),
    ("loadgen.late_p99_us", "us"),
    ("latency.p50_us", "us"),
    ("latency.p99_us", "us"),
    ("trace.overhead_s", "s"),
    ("host.cpu_steal_share", "ratio"),
    ("host.nproc", "count"),
];

/// The workload names `--workload` accepts, those BENCHMARK.json declares
/// first. `serve-graph` runs by hand only: on a 2-vCPU VM its capacity
/// spreads past the 0.25 bound from one batch of runs to the next.
pub const WORKLOADS: &[&str] = &["suite", "serve-btree", "serve-graph"];

/// What one run measured, before it is printed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each. Any entry makes the run
    /// print no metric and exit non-zero.
    pub errors: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Where the result came from, printed as its own JSON line.
    pub provenance: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.insert(key, value.to_string());
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every digit Rust's shortest round-trip formatting gives; JSON has no
/// NaN or infinity, so a non-finite value (a bug) is a failed check.
fn json_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

pub fn provenance_line(o: &Outcome) -> String {
    let body: Vec<String> = o
        .provenance
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

/// The result line: every metric of `declared`, in declared order.
/// Returns the line and whether the run is correct.
pub fn result_line(o: &mut Outcome, declared: &[(&'static str, &'static str)]) -> (String, bool) {
    if o.attempted == 0 {
        o.errors.push("the run attempted no operation".into());
    }
    for (name, _) in declared {
        let v = o.values.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            o.errors.push(format!("metric {name} is not finite: {v}"));
        }
    }
    let correct = o.errors.is_empty();
    let metrics: Vec<String> = if correct {
        declared
            .iter()
            .map(|(name, unit)| {
                let v = o.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(v),
                    json_str(unit)
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    (line, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `{...}` objects of the array under `key` in BENCHMARK.json.
    fn section<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open + 1..close]
            .split('}')
            .filter(|o| o.contains('{'))
            .collect()
    }

    fn field<'a>(obj: &'a str, key: &str) -> &'a str {
        let k = format!("\"{key}\"");
        let at = obj.find(&k).unwrap_or_else(|| panic!("{obj} lacks {key}")) + k.len();
        let rest = &obj[at..];
        let a = rest.find('"').expect("value") + 1;
        let b = a + rest[a..].find('"').expect("value end");
        &rest[a..b]
    }

    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        section(json, key)
            .into_iter()
            .map(|o| (field(o, "name").to_string(), field(o, "unit").to_string()))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(declared(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = section(&json, "workloads")
            .into_iter()
            .map(|o| field(o, "name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS[..2]);
    }

    #[test]
    fn result_line_prints_every_declared_metric_or_none() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        let (line, ok) = result_line(&mut o, &[("setup_s", "s"), ("p50_us", "us")]);
        assert!(ok);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"p50_us\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
        o.check(false, || "answers differ".into());
        let (line, ok) = result_line(&mut o, &[("setup_s", "s")]);
        assert!(!ok);
        assert!(line.ends_with("\"metrics\": {}}"), "{line}");
    }

    #[test]
    fn a_run_that_attempted_nothing_fails() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.25);
        let (line, ok) = result_line(&mut o, &[("setup_s", "s")]);
        assert!(!ok);
        assert!(line.contains("\"attempted\": 0,"), "{line}");
    }
}
