//! The P2G benchmark: one command, two workloads, output checks, and
//! either the end-to-end metrics (untraced run) or the per-layer metrics
//! (traced run). See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_tcp|kmeans> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed output check
//! ends the run with a non-zero exit code and no result line.

mod batch;
mod host;
mod reduce;
mod replay;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::time::Duration;

/// Worker threads of every runtime and serve node: fixed, not derived
/// from the host, so results from different hosts use the same program.
pub const WORKERS: usize = 2;

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_mean_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs of every workload. A layer
/// that a workload does not pass through reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("analyzer.store_events_per_unit", "count"),
    ("analyzer.events_per_batch", "count"),
    ("analyzer.replay_ns_per_event", "ns"),
    ("ready.wait_us_p50", "us"),
    ("ready.wait_us_p95", "us"),
    ("node.body_share", "ratio"),
    ("node.instances_per_unit", "count"),
    ("node.dispatch_us_per_instance", "us"),
    ("field.store_ns_per_call", "ns"),
    ("session.submit_us_p50", "us"),
    ("session.submit_us_p95", "us"),
    ("session.open_ms", "ms"),
    ("session.finish_ms", "ms"),
    ("session.peak_resident_ages", "count"),
    ("session.gc_ages_collected", "count"),
    ("mjpeg.body_ns_p50.yDCT", "ns"),
    ("mjpeg.body_ns_p50.uDCT", "ns"),
    ("mjpeg.body_ns_p50.vDCT", "ns"),
    ("mjpeg.body_ns_p50.vlc_write", "ns"),
    ("mjpeg.dct_ns_per_block", "ns"),
    ("mjpeg.vlc_ns_per_block", "ns"),
    ("mjpeg.standalone_ms_per_frame", "ms"),
    ("mjpeg.overhead_ratio", "ratio"),
    ("kmeans.body_ns_p50.assign", "ns"),
    ("kmeans.baseline_ms_per_iter", "ms"),
    ("kmeans.overhead_ratio", "ratio"),
    ("wire.encode_us_per_frame", "us"),
    ("wire.decode_us_per_frame", "us"),
    ("wire.bytes_per_frame", "bytes"),
    ("serve.submit_us_p95", "us"),
    ("serve.client_server_gap_ms_p50", "ms"),
    ("setup.program_build_ms", "ms"),
    ("setup.launch_ms", "ms"),
    ("gen.lag_ms_p95", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.dropped_events", "count"),
    ("error_rate", "ratio"),
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 2] = ["serve_tcp", "kmeans"];

/// One invocation's parameters.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    /// How long the measured phases last in total.
    pub length: Duration,
    pub trace: bool,
}

/// What a workload measured: counts, metric values and context notes.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// An empty outcome carrying the context every result records.
    pub fn new(run: &Run) -> Outcome {
        let mut out = Outcome {
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            notes: BTreeMap::new(),
        };
        out.note("workload", run.workload.clone());
        out.note("seed", run.seed.to_string());
        out.note("host_cpus", host::cpus().to_string());
        out.note("commit", host::commit());
        out.note("workers", WORKERS.to_string());
        out.note("simd_dct", p2g_mjpeg::dct::simd_active().to_string());
        out.note("simd_yuv", p2g_mjpeg::yuv::yuv_simd_active().to_string());
        out
    }

    /// Set a metric; the name must be one of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Record a piece of context (printed, not a metric).
    pub fn note(&mut self, key: &'static str, value: String) {
        self.notes.insert(key, value);
    }

    /// The result line: every metric of the requested set, by name and
    /// unit. End-to-end metrics must all have been measured; per-layer
    /// metrics a workload does not reach read 0.
    fn result_json(&self, trace: bool) -> Result<String, String> {
        let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for (name, unit) in set {
            let value = match (self.values.get(name), trace) {
                (Some(v), _) => *v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }

    fn context_json(&self) -> String {
        let fields: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{\"context\": {{{}}}}}", fields.join(", "))
    }
}

/// A float as JSON, with every digit Rust's shortest round-trip form has.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Run {
        workload,
        seed,
        length: Duration::from_secs(seconds),
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve-node") {
        if let Err(e) = stream::serve_node_main() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let ticks = host::cpu_ticks();
    let outcome = match run.workload.as_str() {
        "kmeans" => batch::kmeans(&run),
        "serve_tcp" => stream::serve_tcp(&run),
        _ => unreachable!("workload validated"),
    };
    let result = outcome.and_then(|mut out| {
        if !out.values.contains_key("peak_rss_mb") {
            out.set("peak_rss_mb", host::peak_rss_mb(None).unwrap_or(0.0));
        }
        let steal = ticks
            .zip(host::cpu_ticks())
            .and_then(|(a, b)| host::steal_pct(a, b));
        out.note(
            "host_steal_pct",
            steal.map_or("unknown".into(), |p| format!("{p:.2}")),
        );
        out.result_json(run.trace)
            .map(|line| (out.context_json(), line))
    });
    match result {
        Ok((context, line)) => {
            println!("{context}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", run.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(trace: bool) -> Run {
        Run {
            workload: "kmeans".into(),
            seed: 1,
            length: Duration::from_secs(1),
            trace,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::new(&run(false));
        out.attempted = 10;
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = out.result_json(false).expect("all measured");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let mut missing = Outcome::new(&run(false));
        missing.set("setup_s", 1.0);
        assert!(missing.result_json(false).is_err());
        // Traced runs list every per-layer metric, unreached ones as 0.
        let traced = Outcome::new(&run(true))
            .result_json(true)
            .expect("zeros allowed");
        for (name, unit) in PER_LAYER {
            assert!(
                traced.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(traced.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(traced.contains("\"wire.bytes_per_frame\": {\"value\": 0.0,"));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1234567891234), "0.1234567891234");
        assert_eq!(json_number(1e-9), "0.000000001");
    }

    /// The metric names and units here are exactly those of the
    /// repository's `BENCHMARK.json`.
    #[test]
    fn matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let declared: Vec<(String, String)> = json
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|chunk| {
                let name = chunk.split('"').next()?.to_string();
                let unit = chunk.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name, unit.to_string()))
            })
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours);
        let workloads: Vec<&str> = json
            .split("{\"name\": \"")
            .skip(1)
            .filter(|chunk| chunk.contains("\"why\": "))
            .filter_map(|chunk| chunk.split('"').next())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn parses_the_command_line() {
        let args: Vec<String> = "--workload serve_tcp --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let run = parse_args(&args).expect("valid");
        assert_eq!(
            (
                run.workload.as_str(),
                run.seed,
                run.length.as_secs(),
                run.trace
            ),
            ("serve_tcp", 7, 10, true)
        );
        let bad: Vec<String> = [
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(parse_args(&bad).is_err());
    }
}
