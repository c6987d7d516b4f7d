//! The batch workload `kmeans`: the paper's k-means, run as back-to-back
//! jobs of a fixed size.
//!
//! A job is what a user submits: build the program, launch it, wait for
//! its output. Its latency runs from the start of the build to the
//! output; its set-up runs from the start of the build until `launch`
//! returns. Every job's output is checked against `kmeans_baseline`
//! computed in the same process.

use std::sync::Arc;
use std::time::{Duration, Instant};

use p2g_core::graph::ProgramSpec;
use p2g_core::runtime::instrument::InstrumentsSnapshot;
use p2g_core::runtime::{
    KernelOptions, NodeBuilder, Program, RunLimits, RunReport, RunTrace, Termination, TraceOptions,
};
use p2g_kmeans::{build_kmeans_program, generate_dataset, kmeans_baseline, KmeansConfig};

use crate::reduce::TraceLayers;
use crate::replay::{replay, replay_ops};
use crate::stats::{mean, median, ms, summarize, time_median};
use crate::{Outcome, Run, WORKERS};

/// The paper's k-means size: n points, K centroids, fixed iterations.
const KMEANS_N: usize = 2000;
const KMEANS_K: usize = 100;
const KMEANS_ITERS: u64 = 10;
/// Trace ring capacity per runtime thread: large enough that a traced
/// job drops nothing (the rings grow only as far as they are used).
const TRACE_RING: usize = 1 << 21;

/// Timings of one job.
struct Job {
    build: Duration,
    launch: Duration,
    /// Build start → output available.
    latency: Duration,
    report: RunReport,
}

impl Job {
    fn setup(&self) -> Duration {
        self.build + self.launch
    }
}

/// Build with `build`, launch on [`WORKERS`] workers, wait; `check` sees
/// the finished run's report and fields.
fn run_job<T>(
    build: impl FnOnce() -> (Program, T),
    limits: RunLimits,
    check: impl FnOnce(T, &p2g_core::runtime::FieldStore) -> Result<(), String>,
) -> Result<Job, String> {
    let t0 = Instant::now();
    let (program, out) = build();
    let t1 = Instant::now();
    let handle = NodeBuilder::new(program)
        .workers(WORKERS)
        .launch(limits)
        .map_err(|e| format!("launch failed: {e}"))?;
    let t2 = Instant::now();
    let (report, fields) = handle.collect().map_err(|e| format!("run failed: {e}"))?;
    let latency = t0.elapsed();
    if report.termination != Termination::Quiescent {
        return Err(format!("run ended {:?}", report.termination));
    }
    check(out, &fields)?;
    Ok(Job {
        build: t1 - t0,
        launch: t2 - t1,
        latency,
        report,
    })
}

/// Run jobs back to back for `length` (at least `min_jobs`).
fn job_loop(
    length: Duration,
    min_jobs: usize,
    mut job: impl FnMut() -> Result<Job, String>,
) -> Result<Vec<Job>, String> {
    let start = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < min_jobs || start.elapsed() < length {
        jobs.push(job()?);
    }
    Ok(jobs)
}

/// Node instruments summed over runs: instances per dispatch unit, and
/// worker-side dispatch time per instance.
pub fn report_node_instruments<'a>(
    out: &mut Outcome,
    snapshots: impl Iterator<Item = &'a InstrumentsSnapshot>,
) {
    let (mut instances, mut units, mut dispatch) = (0u64, 0u64, Duration::ZERO);
    for (_, k) in snapshots.flat_map(|s| s.all()) {
        instances += k.instances;
        units += k.units;
        dispatch += k.dispatch_total;
    }
    out.set(
        "node.instances_per_unit",
        instances as f64 / units.max(1) as f64,
    );
    out.set(
        "node.dispatch_us_per_instance",
        dispatch.as_secs_f64() * 1e6 / instances.max(1) as f64,
    );
}

/// Spec and per-kernel options of a freshly built program, for replay.
fn replay_config(mut program: Program) -> (Arc<ProgramSpec>, Vec<KernelOptions>) {
    let spec = Arc::new(program.spec().clone());
    let options = spec
        .kernels
        .iter()
        .map(|k| program.options_mut(&k.name).clone())
        .collect();
    (spec, options)
}

/// The jobs of one part of a run.
struct BatchRun {
    /// Frames or iterations per job.
    units_per_job: u64,
    jobs: Vec<Job>,
}

impl BatchRun {
    /// Frames or iterations over every job.
    fn units(&self) -> u64 {
        self.units_per_job * self.jobs.len() as u64
    }

    fn end_to_end(&self, out: &mut Outcome) {
        let wall: f64 = self.jobs.iter().map(|j| j.latency.as_secs_f64()).sum();
        let units = self.units();
        let lat: Vec<f64> = self.jobs.iter().map(|j| ms(j.latency)).collect();
        let setup: Vec<f64> = self.jobs.iter().map(|j| j.setup().as_secs_f64()).collect();
        let s = summarize(&lat);
        out.attempted = units;
        out.set("throughput_per_s", units as f64 / wall);
        out.set("latency_mean_ms", mean(&lat));
        out.set("latency_p95_ms", s.p95);
        out.set("setup_s", median(&setup));
        out.note(
            "latency_samples",
            format!(
                "{} jobs of {} units, {} beyond p95; p50 {:.3} ms",
                s.n, self.units_per_job, s.beyond_p95, s.p50
            ),
        );
        out.note("setup_samples", setup.len().to_string());
    }

    /// Median over the jobs of one of their timings, in ms.
    fn median_ms(&self, timing: impl Fn(&Job) -> Duration) -> f64 {
        median(&self.jobs.iter().map(|j| ms(timing(j))).collect::<Vec<_>>())
    }

    fn median_wall_ms(&self) -> f64 {
        self.median_ms(|j| j.latency)
    }
}

/// The per-layer numbers of a traced run: node instruments from untraced
/// jobs, trace reduction and replay from traced ones.
fn batch_layers(
    out: &mut Outcome,
    untraced: &BatchRun,
    traced: &BatchRun,
    traces: &[RunTrace],
    replay_from: (Arc<ProgramSpec>, Vec<KernelOptions>, RunLimits),
) -> Result<TraceLayers, String> {
    report_node_instruments(out, untraced.jobs.iter().map(|j| &j.report.instruments));
    out.set("setup.program_build_ms", untraced.median_ms(|j| j.build));
    out.set("setup.launch_ms", untraced.median_ms(|j| j.launch));
    out.set(
        "trace.overhead_ratio",
        traced.median_wall_ms() / untraced.median_wall_ms(),
    );

    let mut layers = TraceLayers::default();
    for t in traces {
        layers.add(t);
    }
    if layers.dropped > 0 {
        return Err(format!(
            "traced batch run dropped {} events",
            layers.dropped
        ));
    }
    let traced_units = traced.units() as f64;
    let node_wall_ns: f64 = traced
        .jobs
        .iter()
        .map(|j| j.report.wall_time.as_nanos() as f64)
        .sum();
    out.set("trace.dropped_events", 0.0);
    out.set(
        "analyzer.store_events_per_unit",
        layers.store_events as f64 / traced_units,
    );
    out.set("analyzer.events_per_batch", layers.events_per_batch());
    out.set("node.body_share", layers.body_share(WORKERS, node_wall_ns));
    let w = summarize(&layers.ready_wait_us);
    out.set("ready.wait_us_p50", w.p50);
    out.set("ready.wait_us_p95", w.p95);
    out.note("ready_wait_samples", w.n.to_string());

    // Replay the last traced job's analyzer input from outside.
    let last = traces.last().ok_or("no traced job")?;
    let (spec, options, limits) = replay_from;
    let r = replay(spec, options, limits, &replay_ops(last))?;
    let dispatched = last.of_kind("InstanceDispatched").count();
    if r.instances != dispatched {
        return Err(format!(
            "replay dispatched {} instances, the traced run {dispatched}",
            r.instances
        ));
    }
    out.set(
        "field.store_ns_per_call",
        r.store_ns / r.stores.max(1) as f64,
    );
    out.set(
        "analyzer.replay_ns_per_event",
        r.analyzer_ns / r.events.max(1) as f64,
    );
    out.set("error_rate", 0.0);
    Ok(layers)
}

// ---------------------------------------------------------------------------
// kmeans
// ---------------------------------------------------------------------------

fn kmeans_config(seed: u64) -> KmeansConfig {
    KmeansConfig {
        n: KMEANS_N,
        k: KMEANS_K,
        dim: 2,
        iterations: KMEANS_ITERS,
        seed,
        ..KmeansConfig::default()
    }
}

fn kmeans_job(
    config: &KmeansConfig,
    reference: &p2g_kmeans::KmeansTrace,
    limits: RunLimits,
) -> Result<Job, String> {
    run_job(
        || build_kmeans_program(config).expect("k-means program builds"),
        limits,
        |result, fields| {
            let history = p2g_kmeans::pipeline::centroid_history(
                fields,
                config.k,
                config.dim,
                config.iterations,
            );
            if history.len() < config.iterations as usize
                || history
                    .iter()
                    .zip(&reference.centroids)
                    .any(|(a, b)| a != b)
            {
                return Err("k-means centroids differ from kmeans_baseline".into());
            }
            if result.inertia_log() != reference.inertia {
                return Err("k-means inertia differs from kmeans_baseline".into());
            }
            Ok(())
        },
    )
}

/// `kmeans`: the paper's n=2000, K=100 k-means in fixed-iteration jobs.
///
/// A warm-up job comes first. An untraced run then runs jobs for the
/// whole run and records the end-to-end metrics. A traced run splits the
/// run between untraced and traced jobs and records the per-layer metrics.
pub fn kmeans(run: &Run) -> Result<Outcome, String> {
    let config = kmeans_config(run.seed);
    let points = generate_dataset(config.n, config.dim, config.k, config.seed);
    let reference = kmeans_baseline(&points, config.n, config.dim, config.k, config.iterations);
    let limits = RunLimits::ages(config.iterations);
    let job = |limits: &RunLimits| kmeans_job(&config, &reference, limits.clone());
    let mut out = Outcome::new(run);
    out.note("iterations_per_job", KMEANS_ITERS.to_string());

    job(&limits)?;
    if !run.trace {
        BatchRun {
            units_per_job: KMEANS_ITERS,
            jobs: job_loop(run.length, 5, || job(&limits))?,
        }
        .end_to_end(&mut out);
        return Ok(out);
    }

    let half = run.length / 2;
    let untraced = BatchRun {
        units_per_job: KMEANS_ITERS,
        jobs: job_loop(half, 3, || job(&limits))?,
    };
    let traced_limits = limits.clone().with_trace_options(TraceOptions {
        capacity: TRACE_RING,
    });
    let mut traced_jobs = job_loop(half, 3, || job(&traced_limits))?;
    let traces: Vec<RunTrace> = traced_jobs
        .iter_mut()
        .filter_map(|j| j.report.trace.take())
        .collect();
    let traced = BatchRun {
        units_per_job: KMEANS_ITERS,
        jobs: traced_jobs,
    };
    out.attempted = untraced.units() + traced.units();
    let (fresh, _) = build_kmeans_program(&config).expect("k-means program builds");
    let (spec, options) = replay_config(fresh);
    let layers = batch_layers(
        &mut out,
        &untraced,
        &traced,
        &traces,
        (spec, options, limits),
    )?;
    out.set("kmeans.body_ns_p50.assign", layers.body_p50_ns("assign"));
    let baseline = time_median(Duration::from_millis(300), || {
        std::hint::black_box(kmeans_baseline(
            std::hint::black_box(&points),
            config.n,
            config.dim,
            config.k,
            config.iterations,
        ));
    });
    let per_iter = ms(baseline) / KMEANS_ITERS as f64;
    out.set("kmeans.baseline_ms_per_iter", per_iter);
    out.set(
        "kmeans.overhead_ratio",
        untraced.median_wall_ms() / KMEANS_ITERS as f64 / per_iter,
    );
    Ok(out)
}
