//! The streaming workload `serve_tcp`: 8 MJPEG tenants sent through one
//! `ServeClient` to a serve node in a child process. Its traced run adds
//! the local twin: the same tenants, frames and rates on an in-process
//! `SessionRuntime`, where the runtime and session layers can be traced.
//!
//! One generator thread drives every session. A run has two phases on two
//! sets of sessions opened on the same server or runtime:
//! * capacity — closed loop, every session's admission window kept full;
//!   delivered frames per second is `throughput_per_s`;
//! * open loop — frames arrive as a seeded Poisson process at
//!   [`OPEN_LOOP_RATE`] in aggregate, round-robin over the sessions; each
//!   frame's latency runs from its due time to the moment the generator
//!   holds its encoded output.
//!
//! Every output is compared with the standalone encoding of its frame.

use std::collections::VecDeque;
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2g_core::dist::wire::{decode_payload, encode_frame, FrameReader};
use p2g_core::dist::{
    run_serve_node, NetMsg, RemoteSession, RetryConfig, ServeClient, ServeConfig,
};
use p2g_core::graph::NodeId;
use p2g_core::runtime::{
    Qos, RunTrace, Session, SessionConfig, SessionOutput, SessionRuntime, SessionSink, SubmitError,
};
use p2g_mjpeg::jpeg::{write_frame, JpegParams};
use p2g_mjpeg::{
    build_mjpeg_stream_program, encode_standalone, mjpeg_registry, pack_i420, stream_frame_parts,
    FrameSource, MjpegConfig, SyntheticVideo, YuvFrame,
};

use crate::batch::report_node_instruments;
use crate::reduce::TraceLayers;
use crate::stats::{
    mean, median, ms, summarize, time_median, windowed_rate, windowed_summary, windows, LagLog,
    Schedule, Windowed,
};
use crate::{host, Outcome, Run, WORKERS};

/// IJG quality of every MJPEG tenant.
const QUALITY: u8 = 75;
/// Tenants per run and their frame geometry.
pub const SESSIONS: usize = 8;
pub const DIM: (usize, usize) = (64, 64);
/// Distinct frames per tenant; frame `n` of a session is its frame
/// `n % POOL_FRAMES`.
pub const POOL_FRAMES: u64 = 16;
/// The open-loop aggregate arrival rate, frames per second, shared by
/// `serve_tcp` and its local twin: about a sixth of their usual
/// capacities. Closer to capacity the latency tail moved several-fold
/// with the host's steal time: on a shared 2-vCPU virtual machine at
/// 18–23% steal, p95 reached 58 ms at 200 frames/s and 21 ms at 100.
pub const OPEN_LOOP_RATE: f64 = 100.0;
/// Leading part of each phase left out of its statistics (at most a
/// quarter of the phase, so short runs still measure something).
const WARMUP: Duration = Duration::from_millis(500);

fn warmup(length: Duration) -> Duration {
    WARMUP.min(length / 4)
}
/// Set-ups per run (runtime or connection, plus opening every session).
const SETUP_REPS: usize = 9;
/// How long a run may wait for outstanding outputs after a phase ends.
const DRAIN: Duration = Duration::from_secs(30);
/// Width of the windows the phases are summarised over: capacity per
/// second; latency per 4 s, so that each window holds about 400 frames at
/// the open-loop rate and 20 of them lie beyond its p95.
const CAPACITY_WINDOW: Duration = Duration::from_secs(1);
const LATENCY_WINDOW: Duration = Duration::from_secs(4);
/// Longest the generator idles between polls.
const POLL: Duration = Duration::from_millis(2);

/// Pre-generated frames served by index, so frame synthesis is never
/// timed as part of a job.
struct Frames {
    frames: Vec<YuvFrame>,
    width: usize,
    height: usize,
}

impl Frames {
    /// `count` synthetic frames of `width`×`height` derived from `seed`.
    fn synthetic(width: usize, height: usize, count: u64, seed: u64) -> Frames {
        let video = SyntheticVideo::new(width, height, count, seed);
        Frames::from_frames((0..count).filter_map(|n| video.frame(n)).collect())
    }

    /// Serve the given frames (all of one geometry).
    fn from_frames(frames: Vec<YuvFrame>) -> Frames {
        let (width, height) = (frames[0].width, frames[0].height);
        Frames {
            frames,
            width,
            height,
        }
    }
}

impl FrameSource for Frames {
    fn frame(&self, n: u64) -> Option<YuvFrame> {
        self.frames.get(n as usize).cloned()
    }
    fn width(&self) -> usize {
        self.width
    }
    fn height(&self) -> usize {
        self.height
    }
}

/// One tenant's inputs and the standalone encoding of each.
struct Tenant {
    frames: Vec<YuvFrame>,
    reference: Vec<Vec<u8>>,
}

fn tenants(seed: u64) -> Vec<Tenant> {
    (0..SESSIONS as u64)
        .map(|s| {
            let frames = Frames::synthetic(DIM.0, DIM.1, POOL_FRAMES, seed ^ (s << 32) ^ 0x5E55);
            let reference = frames
                .frames
                .iter()
                .map(|f| {
                    let one = Frames::from_frames(vec![f.clone()]);
                    encode_standalone(&one, QUALITY, 1, true)
                })
                .collect();
            Tenant {
                frames: frames.frames,
                reference,
            }
        })
        .collect()
}

/// A delivered output: the frame's age and its encoded bytes (`None` when
/// the frame was dropped).
type Delivered = (u64, Option<Vec<u8>>);

/// The generator's view of a set of sessions.
trait Target {
    /// Try to submit session `s`'s frame `n`; `false` when its admission
    /// window is full.
    fn try_submit(&mut self, s: usize, n: u64) -> Result<bool, String>;
    /// Session `s`'s next delivered output, if any, without blocking.
    fn poll(&mut self, s: usize) -> Result<Option<Delivered>, String>;
    /// Wait briefly for progress.
    fn idle(&mut self, at_most: Duration);
    /// Resident `(field, age)` slabs across the sessions (0 when remote).
    fn resident_ages(&self) -> usize;
}

/// What one phase observed.
#[derive(Default)]
struct Phase {
    /// Frames attempted, and those that failed (dropped or refused).
    attempted: u64,
    failed: u64,
    /// Capacity: delivery times after the warm-up, as offsets from its
    /// end; `span` is the measured length after the warm-up.
    deliveries: Vec<(Duration, f64)>,
    span: Duration,
    /// Width of the windows the phase is summarised over.
    window: Duration,
    /// Open loop: (due offset after the warm-up, due → delivered in ms).
    latency_ms: Vec<(Duration, f64)>,
    delivered: u64,
    /// Open loop: first attempt → accepted, µs.
    submit_us: Vec<f64>,
    lag: LagLog,
    /// Open loop: time between arrivals.
    interval: Duration,
    peak_resident_ages: usize,
}

impl Phase {
    /// The phase's window width, or the whole span when shorter.
    fn width(&self) -> Duration {
        self.window.min(self.span)
    }

    /// Median frames per second over the capacity phase's windows.
    fn throughput(&self) -> f64 {
        let width = self.width();
        windowed_rate(&windows(&self.deliveries, width, self.span), width)
    }

    fn window_counts(&self) -> String {
        let counts: Vec<usize> = windows(&self.deliveries, self.width(), self.span)
            .iter()
            .map(Vec::len)
            .collect();
        format!("{counts:?}")
    }

    /// Median over the open-loop windows of each window's percentiles.
    fn latency(&self) -> Windowed {
        windowed_summary(&windows(&self.latency_ms, self.width(), self.span))
    }
}

/// Per-session bookkeeping shared by both phases.
struct Books {
    /// Frames submitted so far (the next frame number).
    submitted: Vec<u64>,
    /// Outputs received so far (the next expected age).
    received: Vec<u64>,
}

impl Books {
    fn new() -> Books {
        Books {
            submitted: vec![0; SESSIONS],
            received: vec![0; SESSIONS],
        }
    }

    fn outstanding(&self) -> u64 {
        self.submitted.iter().sum::<u64>() - self.received.iter().sum::<u64>()
    }

    /// Account an output of session `s` and check it; returns whether it
    /// carried a payload.
    fn take(
        &mut self,
        tenants: &[Tenant],
        s: usize,
        age: u64,
        payload: Option<Vec<u8>>,
    ) -> Result<bool, String> {
        if age != self.received[s] {
            return Err(format!(
                "session {s}: output age {age}, expected {}",
                self.received[s]
            ));
        }
        self.received[s] += 1;
        let Some(bytes) = payload else {
            return Ok(false);
        };
        if bytes != tenants[s].reference[(age % POOL_FRAMES) as usize] {
            return Err(format!(
                "session {s} frame {age}: output differs from encode_standalone"
            ));
        }
        Ok(true)
    }
}

/// Closed loop: keep every window full for `length`; count deliveries
/// after the warm-up.
fn capacity(
    target: &mut dyn Target,
    tenants: &[Tenant],
    length: Duration,
) -> Result<Phase, String> {
    let mut books = Books::new();
    let mut phase = Phase::default();
    let start = Instant::now();
    let (from, until) = (start + warmup(length), start + length);
    let mut last_sample = start;
    loop {
        let now = Instant::now();
        let open = now < until;
        let mut progress = false;
        for s in 0..SESSIONS {
            while open && target.try_submit(s, books.submitted[s])? {
                books.submitted[s] += 1;
                phase.attempted += 1;
                progress = true;
            }
            while let Some((age, payload)) = target.poll(s)? {
                let t = Instant::now();
                if !books.take(tenants, s, age, payload)? {
                    phase.failed += 1;
                }
                if t >= from && t < until {
                    phase.deliveries.push((t - from, 1.0));
                    phase.delivered += 1;
                }
                progress = true;
            }
        }
        if now - last_sample >= Duration::from_millis(50) {
            phase.peak_resident_ages = phase.peak_resident_ages.max(target.resident_ages());
            last_sample = now;
        }
        if !open && books.outstanding() == 0 {
            break;
        }
        if now > until + DRAIN {
            return Err(format!(
                "{} outputs missing after the capacity phase",
                books.outstanding()
            ));
        }
        if !progress {
            target.idle(POLL);
        }
    }
    if phase.deliveries.is_empty() {
        return Err("no frame was delivered in the capacity window; run longer".into());
    }
    phase.span = until - from;
    phase.window = CAPACITY_WINDOW;
    Ok(phase)
}

/// Open loop: Poisson arrivals at `rate` for `length`, then drain.
fn open_loop(
    target: &mut dyn Target,
    tenants: &[Tenant],
    rate: f64,
    length: Duration,
    seed: u64,
) -> Result<Phase, String> {
    let mut books = Books::new();
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut schedule = Schedule::poisson(start, rate, length, seed);
    let measured_from = start + warmup(length);
    phase.interval = schedule.interval();
    // Per session: arrivals not yet admitted (due, first attempt), and
    // due times of submitted frames in age order.
    let mut pending: Vec<VecDeque<(Instant, Instant)>> = vec![VecDeque::new(); SESSIONS];
    let mut in_flight: Vec<VecDeque<Instant>> = vec![VecDeque::new(); SESSIONS];
    let mut last_sample = start;
    loop {
        let now = Instant::now();
        while let Some((i, due)) = schedule.pop_due(now) {
            phase.lag.record(due, now);
            pending[i as usize % SESSIONS].push_back((due, now));
            phase.attempted += 1;
        }
        let mut progress = false;
        for s in 0..SESSIONS {
            while let Some(&(due, first)) = pending[s].front() {
                if !target.try_submit(s, books.submitted[s])? {
                    break;
                }
                let accepted = Instant::now();
                if due >= measured_from {
                    phase
                        .submit_us
                        .push(accepted.duration_since(first).as_secs_f64() * 1e6);
                }
                books.submitted[s] += 1;
                in_flight[s].push_back(due);
                pending[s].pop_front();
                progress = true;
            }
            while let Some((age, payload)) = target.poll(s)? {
                let t = Instant::now();
                let due = in_flight[s]
                    .pop_front()
                    .ok_or("output for a frame never submitted")?;
                if books.take(tenants, s, age, payload)? {
                    phase.delivered += 1;
                    if due >= measured_from {
                        phase
                            .latency_ms
                            .push((due - measured_from, ms(t.duration_since(due))));
                    }
                } else {
                    phase.failed += 1;
                }
                progress = true;
            }
        }
        if now - last_sample >= Duration::from_millis(50) {
            phase.peak_resident_ages = phase.peak_resident_ages.max(target.resident_ages());
            last_sample = now;
        }
        if schedule.done() && pending.iter().all(|p| p.is_empty()) && books.outstanding() == 0 {
            break;
        }
        if now > start + length + DRAIN {
            return Err("open-loop outputs missing after the drain timeout".into());
        }
        if !progress {
            let wait = schedule
                .next_due()
                .map_or(POLL, |d| d.saturating_duration_since(now))
                .min(POLL);
            target.idle(wait);
        }
    }
    if phase.latency_ms.is_empty() {
        return Err("no open-loop frame was measured after the warm-up; run longer".into());
    }
    phase.span = length - warmup(length);
    phase.window = LATENCY_WINDOW;
    Ok(phase)
}

/// Record the open-loop results every streaming workload reports. The
/// central figure is the mean over every measured frame, not the median:
/// the serve node drains finished outputs once per 2 ms pass of its loop,
/// so the latencies fall into two modes about 2 ms apart, and the median
/// lies in the trough between them. There it jumps by most of the gap
/// when a few percent of the frames change mode, while the mean moves by
/// the same few percent of the gap.
fn report_open_loop(out: &mut Outcome, phase: &Phase, rate: f64) {
    let lat = phase.latency();
    let all: Vec<f64> = phase.latency_ms.iter().map(|&(_, v)| v).collect();
    out.set("latency_mean_ms", mean(&all));
    out.set("latency_p95_ms", lat.p95);
    let whole = summarize(&all);
    out.note(
        "latency_samples",
        format!(
            "{} frames in {} windows of {:?} (fewest {}); whole-phase p50 {:.3} p95 {:.3} ms",
            whole.n,
            lat.windows,
            phase.width(),
            lat.min_samples,
            whole.p50,
            whole.p95
        ),
    );
    out.note("offered_rate_per_s", format!("{rate}"));
    let lag = phase.lag.summary();
    out.note("generator_lag_ms_p95", format!("{:.3}", lag.p95));
    out.note(
        "generator_fell_behind",
        phase.lag.fell_behind(phase.interval).to_string(),
    );
    out.set("gen.lag_ms_p95", lag.p95);
}

/// Capacity and open-loop lengths: the open loop gets the larger share,
/// since its latency windows are twice as wide.
fn phase_lengths(length: Duration) -> (Duration, Duration) {
    (length * 2 / 5, length * 3 / 5)
}

/// Record the capacity results every streaming workload reports.
fn report_capacity(out: &mut Outcome, phase: &Phase) {
    out.set("throughput_per_s", phase.throughput());
    out.note("capacity_frames", phase.delivered.to_string());
    out.note("capacity_frames_per_window", phase.window_counts());
}

// ---------------------------------------------------------------------------
// The local twin
// ---------------------------------------------------------------------------

struct Local<'a> {
    sessions: Vec<Session>,
    tenants: &'a [Tenant],
    /// The session of every outstanding frame, oldest first.
    outstanding: VecDeque<usize>,
    /// Outputs taken by `idle` before `poll` asked for them.
    stash: Vec<VecDeque<SessionOutput>>,
    /// Sessions whose last submit found the admission window full; set
    /// until one of their outputs arrives, so a full window costs no
    /// frame-part building per retry.
    blocked: Vec<bool>,
}

impl<'a> Local<'a> {
    fn new(sessions: Vec<Session>, tenants: &'a [Tenant]) -> Local<'a> {
        Local {
            sessions,
            tenants,
            outstanding: VecDeque::new(),
            stash: (0..SESSIONS).map(|_| VecDeque::new()).collect(),
            blocked: vec![false; SESSIONS],
        }
    }

    /// Swap in a fresh set of sessions; returns the previous set.
    fn reopen(&mut self, sessions: Vec<Session>) -> Vec<Session> {
        self.blocked.fill(false);
        std::mem::replace(&mut self.sessions, sessions)
    }
}

impl Target for Local<'_> {
    fn try_submit(&mut self, s: usize, n: u64) -> Result<bool, String> {
        if self.blocked[s] {
            return Ok(false);
        }
        let session = &self.sessions[s];
        let frame = &self.tenants[s].frames[(n % POOL_FRAMES) as usize];
        match session.try_submit(stream_frame_parts(session, frame)) {
            Ok(_) => {
                self.outstanding.push_back(s);
                Ok(true)
            }
            Err(SubmitError::WouldBlock) => {
                self.blocked[s] = true;
                Ok(false)
            }
            Err(SubmitError::Closed) => Err(format!("session {s} closed")),
        }
    }

    fn poll(&mut self, s: usize) -> Result<Option<Delivered>, String> {
        let out = self.stash[s]
            .pop_front()
            .or_else(|| self.sessions[s].poll_output());
        if out.is_some() {
            self.blocked[s] = false;
            let i = self.outstanding.iter().position(|&o| o == s);
            self.outstanding
                .remove(i.ok_or("output from a session with nothing outstanding")?);
        }
        Ok(out.map(|o| (o.age, o.payload)))
    }

    /// Block on the session holding the oldest outstanding frame: the
    /// session API wakes the caller as soon as that output is ready.
    fn idle(&mut self, at_most: Duration) {
        match self.outstanding.front() {
            Some(&s) => {
                if let Some(out) = self.sessions[s].recv(at_most) {
                    self.stash[s].push_back(out);
                }
            }
            None => std::thread::sleep(at_most),
        }
    }

    fn resident_ages(&self) -> usize {
        self.sessions.iter().map(|s| s.resident_ages()).sum()
    }
}

/// Timings of opening one set of local sessions.
struct LocalOpen {
    sessions: Vec<Session>,
    build_ms: Vec<f64>,
    open_ms: Vec<f64>,
}

fn open_local(runtime: &SessionRuntime, trace: bool) -> Result<LocalOpen, String> {
    let mut opened = LocalOpen {
        sessions: Vec::new(),
        build_ms: Vec::new(),
        open_ms: Vec::new(),
    };
    for _ in 0..SESSIONS {
        let t0 = Instant::now();
        let sink = SessionSink::new();
        let config = MjpegConfig {
            quality: QUALITY,
            fast_dct: true,
            ..MjpegConfig::default()
        };
        let program = build_mjpeg_stream_program(DIM.0, DIM.1, config, sink.clone())
            .map_err(|e| format!("stream program: {e}"))?;
        let t1 = Instant::now();
        // The serve node opens every remote session with a QoS rank; the
        // local twin does the same so both run identical runtime work.
        let mut session_config = SessionConfig::new("vlc/write")
            .sink(sink)
            .with_qos(Qos::normal());
        if trace {
            session_config = session_config.with_trace();
        }
        let session = runtime
            .open(program, session_config)
            .map_err(|e| format!("session open: {e}"))?;
        opened.build_ms.push(ms(t1 - t0));
        opened.open_ms.push(ms(t1.elapsed()));
        opened.sessions.push(session);
    }
    Ok(opened)
}

/// Finish every session; per-session finish times and the reports.
fn finish_local(
    sessions: Vec<Session>,
) -> Result<(Vec<f64>, Vec<p2g_core::runtime::SessionReport>), String> {
    let mut times = Vec::new();
    let mut reports = Vec::new();
    for s in sessions {
        let t = Instant::now();
        let report = s
            .finish(DRAIN)
            .map_err(|e| format!("session finish: {e}"))?;
        times.push(ms(t.elapsed()));
        reports.push(report);
    }
    Ok((times, reports))
}

/// The local twin of `serve_tcp`, run only in its traced run: the same
/// tenants, frames and open-loop rate on an in-process `SessionRuntime`.
/// The serve node keeps its runtime inside its own process, so the
/// runtime and session layers are measured here. Three phases of a third
/// of `length` each, every one on freshly opened sessions: untraced
/// capacity, a traced open loop (whose session traces give the layer
/// numbers) and traced capacity (for the tracing overhead).
fn local_twin_layers(
    out: &mut Outcome,
    run: &Run,
    tenants: &[Tenant],
    length: Duration,
) -> Result<(), String> {
    let runtime = SessionRuntime::new(WORKERS);
    let (mut build_ms, mut open_ms, mut finish_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut target = Local::new(Vec::new(), tenants);
    let mut phase = |traced: bool, open_loop_seed: Option<u64>| {
        let opened = open_local(&runtime, traced)?;
        build_ms.extend(opened.build_ms);
        open_ms.extend(opened.open_ms);
        target.reopen(opened.sessions);
        let phase = match open_loop_seed {
            Some(seed) => open_loop(&mut target, tenants, OPEN_LOOP_RATE, length / 3, seed)?,
            None => capacity(&mut target, tenants, length / 3)?,
        };
        let (times, reports) = finish_local(target.reopen(Vec::new()))?;
        finish_ms.extend(times);
        Ok::<_, String>((phase, reports))
    };
    let (cap, cap_reports) = phase(false, None)?;
    let (ol, ol_reports) = phase(true, Some(run.seed))?;
    let (traced_cap, _) = phase(true, None)?;
    runtime.shutdown();

    out.attempted += cap.attempted + ol.attempted + traced_cap.attempted;
    out.failed += cap.failed + ol.failed + traced_cap.failed;
    out.note("local_capacity_per_s", format!("{:.1}", cap.throughput()));
    out.note("local_latency_p50_ms", format!("{:.3}", ol.latency().p50));
    out.set(
        "trace.overhead_ratio",
        cap.throughput() / traced_cap.throughput(),
    );
    let traces: Vec<RunTrace> = ol_reports
        .into_iter()
        .filter_map(|r| r.report.trace)
        .collect();
    let layers = stream_trace_layers(out, &traces);
    out.set(
        "node.body_share",
        layers.body_share(WORKERS, (length / 3).as_nanos() as f64),
    );
    report_node_instruments(out, cap_reports.iter().map(|r| &r.report.instruments));
    let submit = summarize(&ol.submit_us);
    out.set("session.submit_us_p50", submit.p50);
    out.set("session.submit_us_p95", submit.p95);
    out.set("session.open_ms", median(&open_ms));
    out.set("session.finish_ms", median(&finish_ms));
    out.set(
        "session.peak_resident_ages",
        cap.peak_resident_ages.max(ol.peak_resident_ages) as f64,
    );
    out.set("setup.program_build_ms", median(&build_ms));
    stream_kernel_layers(out, tenants, cap.throughput());
    Ok(())
}

/// Reduce the open-loop sessions' traces (each keeps its newest events).
fn stream_trace_layers(out: &mut Outcome, traces: &[RunTrace]) -> TraceLayers {
    let mut layers = TraceLayers::default();
    for t in traces {
        layers.add(t);
    }
    let frames_in_trace = layers.body_ns.get("vlc/write").map_or(0, |v| v.len());
    out.set(
        "analyzer.store_events_per_unit",
        layers.store_events as f64 / frames_in_trace.max(1) as f64,
    );
    out.set(
        "session.gc_ages_collected",
        layers.gc_collected as f64 / frames_in_trace.max(1) as f64,
    );
    out.set("analyzer.events_per_batch", layers.events_per_batch());
    let w = summarize(&layers.ready_wait_us);
    out.set("ready.wait_us_p50", w.p50);
    out.set("ready.wait_us_p95", w.p95);
    out.note("ready_wait_samples", w.n.to_string());
    report_mjpeg_bodies(out, &layers);
    out.set("trace.dropped_events", layers.dropped as f64);
    layers
}

/// Kernel timings on the tenants' frames, and P2G wall per frame (at
/// capacity, on [`WORKERS`] workers) over the standalone encoder's.
fn stream_kernel_layers(out: &mut Outcome, tenants: &[Tenant], fps: f64) {
    let frames: Vec<YuvFrame> = tenants.iter().flat_map(|t| t.frames.clone()).collect();
    let standalone = mjpeg_kernel_layers(out, &frames);
    out.set("mjpeg.overhead_ratio", 1e3 / fps / standalone);
}

/// Median body time of each MJPEG kernel in the traces.
fn report_mjpeg_bodies(out: &mut Outcome, layers: &TraceLayers) {
    for (metric, kernel) in [
        ("mjpeg.body_ns_p50.yDCT", "yDCT"),
        ("mjpeg.body_ns_p50.uDCT", "uDCT"),
        ("mjpeg.body_ns_p50.vDCT", "vDCT"),
        ("mjpeg.body_ns_p50.vlc_write", "vlc/write"),
    ] {
        out.set(metric, layers.body_p50_ns(kernel));
    }
}

/// The MJPEG kernels timed on their own over `frames`: DCT+quantisation
/// per block, entropy coding per block, and the standalone encoder per
/// frame. Returns the standalone milliseconds per frame.
fn mjpeg_kernel_layers(out: &mut Outcome, frames: &[YuvFrame]) -> f64 {
    let (w, h) = (frames[0].width, frames[0].height);
    let params = JpegParams::new(w, h, QUALITY);
    let planes: Vec<[(Vec<u8>, &[u16; 64]); 3]> = frames
        .iter()
        .map(|f| {
            [
                (f.luma_plane_blocks(), &params.luma_table),
                (f.u_plane_blocks(), &params.chroma_table),
                (f.v_plane_blocks(), &params.chroma_table),
            ]
        })
        .collect();
    let blocks: usize = planes[0].iter().map(|(p, _)| p.len() / 64).sum();
    let encode = |blocks: &[u8], table: &[u16; 64]| -> Vec<i16> {
        let mut coeffs = vec![0i16; blocks.len()];
        p2g_mjpeg::dct::dct_quantize_aan_blocks(blocks, table, &mut coeffs);
        coeffs
    };
    let budget = Duration::from_millis(300);
    let dct = time_median(budget, || {
        for f in &planes {
            for (p, t) in f {
                std::hint::black_box(encode(std::hint::black_box(p), t));
            }
        }
    });
    out.set(
        "mjpeg.dct_ns_per_block",
        dct.as_nanos() as f64 / (blocks * frames.len()) as f64,
    );
    let coeffs: Vec<Vec<Vec<i16>>> = planes
        .iter()
        .map(|f| f.iter().map(|(p, t)| encode(p, t)).collect())
        .collect();
    let vlc = time_median(budget, || {
        for c in &coeffs {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &params, &c[0], &c[1], &c[2]);
            std::hint::black_box(bytes);
        }
    });
    out.set(
        "mjpeg.vlc_ns_per_block",
        vlc.as_nanos() as f64 / (blocks * frames.len()) as f64,
    );
    let source = Frames::from_frames(frames.to_vec());
    let standalone = time_median(budget, || {
        std::hint::black_box(encode_standalone(
            &source,
            QUALITY,
            frames.len() as u64,
            true,
        ));
    });
    let per_frame = ms(standalone) / frames.len() as f64;
    out.set("mjpeg.standalone_ms_per_frame", per_frame);
    per_frame
}

// ---------------------------------------------------------------------------
// serve_tcp
// ---------------------------------------------------------------------------

/// Open parameters matching the local sessions: geometry, quality, the
/// fast DCT; window and GC window stay at the library defaults.
const OPEN_PARAMS: [(&str, i64); 4] = [
    ("width", DIM.0 as i64),
    ("height", DIM.1 as i64),
    ("quality", QUALITY as i64),
    ("fast_dct", 1),
];

/// The serve node, run by this same executable in a child process. It
/// exits when asked to shut down, or when its parent goes away (its
/// standard input, a pipe from the parent, reaches end of file).
pub fn serve_node_main() -> Result<(), String> {
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        eprintln!("p2g-serve: parent gone, exiting");
        std::process::exit(1);
    });
    let cfg = ServeConfig {
        port: 0,
        workers: WORKERS,
        ..ServeConfig::default()
    };
    run_serve_node(mjpeg_registry(), &cfg)
        .map(|_| ())
        .map_err(|e| format!("serve node: {e}"))
}

/// A serve-node child process; killed and reaped on drop if still alive.
struct ServeProcess {
    child: Child,
    /// Held open for the node's lifetime: closing it stops the node.
    stdin: Option<ChildStdin>,
    port: u16,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl ServeProcess {
    fn spawn() -> Result<ServeProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--serve-node")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn serve node: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        // Forward the node's log, picking up the port it announces.
        let reader = std::thread::spawn(move || {
            for line in std::io::BufReader::new(stderr)
                .lines()
                .map_while(Result::ok)
            {
                if let Some(p) = line.strip_prefix("p2g-serve: listening on port ") {
                    let _ = tx.send(p.trim().parse::<u16>().ok());
                }
                eprintln!("[serve-node] {line}");
            }
        });
        let mut proc = ServeProcess {
            stdin: child.stdin.take(),
            child,
            port: 0,
            stderr: Some(reader),
        };
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(Some(port)) => proc.port = port,
            _ => return Err("serve node did not announce its port".into()),
        }
        Ok(proc)
    }

    fn addr(&self) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], self.port))
    }

    /// Wait for the node to exit after a shutdown request.
    fn wait(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve node exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("serve node did not shut down".into()),
            }
        }
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

struct Remote<'a> {
    sessions: Vec<RemoteSession>,
    payloads: &'a [Vec<Vec<u8>>],
}

impl Target for Remote<'_> {
    fn try_submit(&mut self, s: usize, n: u64) -> Result<bool, String> {
        let session = &self.sessions[s];
        let payload = self.payloads[s][(n % POOL_FRAMES) as usize].clone();
        match session.submit(payload, Duration::ZERO) {
            Ok(age) if age == n => Ok(true),
            Ok(age) => Err(format!("session {s}: submitted age {age}, expected {n}")),
            // Without credit the call refuses at once; a rejection is final.
            Err(e) if session.is_rejected() => Err(format!("session {s}: {e}")),
            Err(_) => Ok(false),
        }
    }

    fn poll(&mut self, s: usize) -> Result<Option<Delivered>, String> {
        self.sessions[s]
            .recv(Duration::ZERO)
            .map(|o| o.map(|o| (o.age, o.payload)))
            .map_err(|e| format!("session {s}: {e}"))
    }

    fn idle(&mut self, _at_most: Duration) {
        // `stats` drains the client's inbox for about a millisecond: the
        // shortest wait the client API offers that also receives outputs.
        let _ = self.sessions[0].stats();
    }

    fn resident_ages(&self) -> usize {
        0
    }
}

fn open_remote(
    client: &Arc<ServeClient>,
    open_ms: &mut Vec<f64>,
) -> Result<Vec<RemoteSession>, String> {
    (0..SESSIONS)
        .map(|_| {
            let t = Instant::now();
            let s = client
                .open("mjpeg", &OPEN_PARAMS, Qos::normal(), DRAIN)
                .map_err(|e| format!("remote open: {e}"))?;
            open_ms.push(ms(t.elapsed()));
            Ok(s)
        })
        .collect()
}

/// `serve_tcp`: 8 MJPEG tenants over loopback TCP.
pub fn serve_tcp(run: &Run) -> Result<Outcome, String> {
    let tenants = tenants(run.seed);
    let payloads: Vec<Vec<Vec<u8>>> = tenants
        .iter()
        .map(|t| t.frames.iter().map(pack_i420).collect())
        .collect();
    let mut out = Outcome::new(run);
    let server = ServeProcess::spawn()?;
    let addr = server.addr();

    let mut setup_s = Vec::new();
    let mut connect_ms = Vec::new();
    let mut open_ms = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let client = ServeClient::connect(NodeId(1 + rep as u32), addr, RetryConfig::default())
            .map_err(|e| format!("connect: {e}"))?;
        connect_ms.push(ms(t0.elapsed()));
        let sessions = open_remote(&client, &mut open_ms)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            kept = Some((client, sessions));
        } else {
            sessions.iter().for_each(RemoteSession::close);
            // Let the close requests leave before the endpoint goes, so the
            // node finishes these sessions now instead of later collecting
            // them as orphans in the middle of a measured phase.
            std::thread::sleep(Duration::from_millis(50));
            client.close();
        }
    }
    let (client, sessions) = kept.expect("at least one set-up");
    // A traced run gives the remote phases half the run and the local
    // twin the other half.
    let remote_len = if run.trace {
        run.length / 2
    } else {
        run.length
    };
    let (cap_len, open_len) = phase_lengths(remote_len);
    let mut target = Remote {
        sessions,
        payloads: &payloads,
    };
    let cap = capacity(&mut target, &tenants, cap_len)?;
    target.sessions.iter().for_each(RemoteSession::close);
    target.sessions = open_remote(&client, &mut open_ms)?;
    let ol = open_loop(&mut target, &tenants, OPEN_LOOP_RATE, open_len, run.seed)?;
    // The server pushes its own latency view of each session periodically;
    // wait for a push that covers every frame.
    let server_p50_ms = server_latency_p50(&target.sessions, ol.delivered + ol.failed)?;
    target.sessions.iter().for_each(RemoteSession::close);
    let server_rss = host::peak_rss_mb(Some(server.child.id())).unwrap_or(0.0);
    client.shutdown_server();
    client.close();
    server.wait()?;

    out.attempted = cap.attempted + ol.attempted;
    out.failed = cap.failed + ol.failed;
    out.set("setup_s", median(&setup_s));
    out.note("setup_samples", setup_s.len().to_string());
    report_capacity(&mut out, &cap);
    report_open_loop(&mut out, &ol, OPEN_LOOP_RATE);
    out.set(
        "peak_rss_mb",
        host::peak_rss_mb(None).unwrap_or(0.0) + server_rss,
    );
    out.note("server_peak_rss_mb", format!("{server_rss:.3}"));

    if run.trace {
        let client_p50 = ol.latency().p50;
        out.set("serve.client_server_gap_ms_p50", client_p50 - server_p50_ms);
        out.set("serve.submit_us_p95", summarize(&ol.submit_us).p95);
        out.note("remote_open_ms", format!("{:.3}", median(&open_ms)));
        out.set("setup.launch_ms", median(&connect_ms));
        wire_layers(&mut out, &tenants, &payloads)?;
        local_twin_layers(&mut out, run, &tenants, run.length - remote_len)?;
        out.set(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
    }
    Ok(out)
}

/// Mean over sessions of the server-pushed p50 latency, in ms, once the
/// pushes account for all `frames`.
fn server_latency_p50(sessions: &[RemoteSession], frames: u64) -> Result<f64, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats: Vec<_> = sessions.iter().filter_map(RemoteSession::stats).collect();
        let completed: u64 = stats.iter().map(|s| s.completed).sum();
        if stats.len() == sessions.len() && completed >= frames {
            let p50: Vec<f64> = stats
                .iter()
                .map(|s| s.p50_latency_us as f64 / 1e3)
                .collect();
            return Ok(p50.iter().sum::<f64>() / p50.len() as f64);
        }
        if Instant::now() > deadline {
            return Err("server stats never covered the open-loop frames".into());
        }
    }
}

/// The wire codec on one frame's round trip: the client's `SubmitFrame`
/// out and the server's `Output` back.
fn wire_layers(
    out: &mut Outcome,
    tenants: &[Tenant],
    payloads: &[Vec<Vec<u8>>],
) -> Result<(), String> {
    let msgs: Vec<(NetMsg, NetMsg)> = tenants
        .iter()
        .zip(payloads)
        .flat_map(|(t, p)| {
            p.iter()
                .zip(&t.reference)
                .enumerate()
                .map(|(age, (payload, jpeg))| {
                    (
                        NetMsg::SubmitFrame {
                            session: 1,
                            age: age as u64,
                            payload: payload.clone(),
                        },
                        NetMsg::Output {
                            session: 1,
                            age: age as u64,
                            payload: Some(jpeg.clone()),
                        },
                    )
                })
        })
        .collect();
    let frames: Vec<(Vec<u8>, Vec<u8>)> = msgs
        .iter()
        .map(|(a, b)| (encode_frame(a), encode_frame(b)))
        .collect();
    let bytes: usize = frames.iter().map(|(a, b)| a.len() + b.len()).sum();
    out.set("wire.bytes_per_frame", bytes as f64 / frames.len() as f64);
    let per_frame = |d: Duration| d.as_secs_f64() * 1e6 / msgs.len() as f64;
    let budget = Duration::from_millis(200);
    let enc = time_median(budget, || {
        for (a, b) in &msgs {
            std::hint::black_box((encode_frame(a), encode_frame(b)));
        }
    });
    out.set("wire.encode_us_per_frame", per_frame(enc));
    // The receive path: frame validation (magic, length, CRC) in a
    // `FrameReader`, then payload decoding.
    let receive = |bytes: &[u8]| -> Option<NetMsg> {
        let mut reader = FrameReader::new();
        reader.push(bytes);
        decode_payload(&reader.next_frame().ok()??).ok()
    };
    for ((a, b), (ea, eb)) in msgs.iter().zip(&frames) {
        if receive(ea).as_ref() != Some(a) || receive(eb).as_ref() != Some(b) {
            return Err("wire round trip changed a message".into());
        }
    }
    let dec = time_median(budget, || {
        for (a, b) in &frames {
            std::hint::black_box((receive(a), receive(b)));
        }
    });
    out.set("wire.decode_us_per_frame", per_frame(dec));
    Ok(())
}
