//! Analyzer and field replay from outside the runtime.
//!
//! A traced batch run's `StoreApplied` stream is replayed into fresh fields
//! and a fresh `DependencyAnalyzer`, timing `Field::store` and the
//! analyzer's event handling separately. Instance completions are rebuilt
//! from the body records: a worker runs a unit's bodies and stores on one
//! thread and sends the unit's completion after its last store, so each
//! instance is done right after its own last store (or its body end, if it
//! stored nothing) before the thread's next body starts. The replay groups
//! the instances into the units its own analyzer dispatched and feeds a
//! unit's completion, with the unit's instance count, once its last
//! instance is done. Any chunk size therefore replays.
//!
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use p2g_core::field::{Age, Buffer, DimSel, Extents, Field, FieldId, Region};
use p2g_core::graph::{KernelId, ProgramSpec};
use p2g_core::runtime::analyzer::SharedFields;
use p2g_core::runtime::events::{Event, StoreEvent};
use p2g_core::runtime::instance::DispatchUnit;
use p2g_core::runtime::{DependencyAnalyzer, KernelOptions, RunLimits, RunTrace, TraceEvent};

/// One replayed analyzer input.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayOp {
    /// A body's store, as the trace recorded it (region pre-resolved).
    Store {
        field: FieldId,
        age: u64,
        region: Region,
    },
    /// One instance's body and its stores finished.
    Done {
        kernel: KernelId,
        age: u64,
        indices: Vec<usize>,
        stored_any: bool,
    },
}

/// Rebuild the analyzer's input sequence from a trace.
pub fn replay_ops(trace: &RunTrace) -> Vec<ReplayOp> {
    // First pass: each instance's completion, keyed by the index of the
    // record it follows (its last store, else its body end).
    let mut done_after: Vec<(usize, ReplayOp)> = Vec::new();
    // Per worker thread: the instance whose body ended and whose stores
    // may still follow, and the index of its last record.
    let mut open: BTreeMap<u32, (ReplayOp, usize)> = BTreeMap::new();
    let close = |(op, last): (ReplayOp, usize), out: &mut Vec<(usize, ReplayOp)>| {
        out.push((last, op));
    };
    for (i, r) in trace.records.iter().enumerate() {
        match &r.event {
            TraceEvent::BodyStart { .. } => {
                if let Some(unit) = open.remove(&r.tid) {
                    close(unit, &mut done_after);
                }
            }
            TraceEvent::BodyEnd {
                kernel,
                age,
                indices,
                ok,
                ..
            } if *ok => {
                let op = ReplayOp::Done {
                    kernel: *kernel,
                    age: *age,
                    indices: indices.clone(),
                    stored_any: false,
                };
                // A whole-unit batch body records every start before any
                // end, so an end may follow another end on the thread.
                if let Some(prev) = open.insert(r.tid, (op, i)) {
                    close(prev, &mut done_after);
                }
            }
            TraceEvent::StoreApplied {
                kernel: Some(_), ..
            } => {
                if let Some((ReplayOp::Done { stored_any, .. }, last)) = open.get_mut(&r.tid) {
                    *stored_any = true;
                    *last = i;
                }
            }
            _ => {}
        }
    }
    for unit in std::mem::take(&mut open).into_values() {
        close(unit, &mut done_after);
    }
    done_after.sort_by_key(|(i, _)| *i);

    // Second pass: stores in trace order, each instance's completion right
    // after the record it follows.
    let mut dones = done_after.into_iter().peekable();
    let mut ops = Vec::new();
    for (i, r) in trace.records.iter().enumerate() {
        if let TraceEvent::StoreApplied {
            kernel: Some(_),
            field,
            age,
            region,
            ..
        } = &r.event
        {
            ops.push(ReplayOp::Store {
                field: *field,
                age: *age,
                region: region.clone(),
            });
        }
        while let Some((_, op)) = dones.next_if(|(at, _)| *at == i) {
            ops.push(op);
        }
    }
    ops
}

/// What one replay measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayResult {
    /// `Field::store` calls and their total time.
    pub stores: usize,
    pub store_ns: f64,
    /// Analyzer events handled and their total time.
    pub events: usize,
    pub analyzer_ns: f64,
    /// Instances the replayed analyzer dispatched (seed included).
    pub instances: usize,
}

/// Replay `ops` into fresh fields and a fresh analyzer configured like the
/// traced run (`spec`, per-kernel `options`, `limits`).
pub fn replay(
    spec: Arc<ProgramSpec>,
    options: Vec<KernelOptions>,
    limits: RunLimits,
    ops: &[ReplayOp],
) -> Result<ReplayResult, String> {
    let fields = fresh_fields(&spec);
    let mut analyzer = DependencyAnalyzer::new(
        spec.clone(),
        options,
        HashSet::new(),
        fields.clone(),
        limits,
    );
    replay_into(&mut analyzer, &fields, &spec, ops)
}

/// Empty fields of `spec`.
fn fresh_fields(spec: &ProgramSpec) -> SharedFields {
    Arc::new(
        spec.fields
            .iter()
            .enumerate()
            .map(|(i, d)| parking_lot::RwLock::new(Field::new(FieldId(i as u32), d.clone())))
            .collect(),
    )
}

/// Replay `ops` into `fields` and a fresh `analyzer` over them.
fn replay_into(
    analyzer: &mut DependencyAnalyzer,
    fields: &SharedFields,
    spec: &ProgramSpec,
    ops: &[ReplayOp],
) -> Result<ReplayResult, String> {
    // Payloads are built before timing: only the store itself is measured.
    let mut payloads = ops
        .iter()
        .filter_map(|op| match op {
            ReplayOp::Store { field, region, .. } => Some(Buffer::zeroed(
                spec.fields[field.0 as usize].ty,
                shape(region),
            )),
            ReplayOp::Done { .. } => None,
        })
        .collect::<Vec<_>>()
        .into_iter();
    let mut out = ReplayResult::default();
    let mut units = Units::default();
    out.instances += units.dispatched(analyzer.seed());
    for op in ops {
        let event = match op {
            ReplayOp::Store { field, age, region } => {
                let payload = payloads.next().expect("one payload per store");
                let t = Instant::now();
                let mut f = fields[field.0 as usize].write();
                let outcome = f
                    .store(Age(*age), region, &payload)
                    .map_err(|e| format!("replayed store rejected: {e}"))?;
                let extents = f
                    .extents(Age(*age))
                    .cloned()
                    .ok_or("age not resident after a replayed store")?;
                drop(f);
                out.store_ns += t.elapsed().as_nanos() as f64;
                out.stores += 1;
                Event::Store(StoreEvent {
                    field: *field,
                    age: Age(*age),
                    region: region.resolved_against(&extents),
                    extents,
                    elements: outcome.stored,
                    age_complete: outcome.age_complete,
                    resized: outcome.resized,
                    inline_dispatched: None,
                })
            }
            ReplayOp::Done {
                kernel,
                age,
                indices,
                stored_any,
            } => match units.done(*kernel, *age, indices, *stored_any)? {
                Some(event) => event,
                None => continue,
            },
        };
        let t = Instant::now();
        let dispatched = analyzer
            .on_event(&event)
            .map_err(|e| format!("replayed event rejected: {e}"))?;
        out.analyzer_ns += t.elapsed().as_nanos() as f64;
        out.events += 1;
        out.instances += units.dispatched(dispatched);
    }
    if let Some(((kernel, age, _), _)) = units.unit_of.iter().next() {
        return Err(format!(
            "replay left kernel {} age {age} unfinished",
            kernel.0
        ));
    }
    Ok(out)
}

/// The units the replayed analyzer dispatched, as far as they are not yet
/// finished.
#[derive(Default)]
struct Units {
    /// Each outstanding instance's unit, by (kernel, age, indices).
    unit_of: HashMap<(KernelId, u64, Vec<usize>), usize>,
    /// Per unit: instances, instances still running, and whether any
    /// finished instance stored.
    units: Vec<(usize, usize, bool)>,
}

impl Units {
    /// Register dispatched units; returns their instance count.
    fn dispatched(&mut self, units: Vec<DispatchUnit>) -> usize {
        let mut instances = 0;
        for u in units {
            let id = self.units.len();
            self.units.push((u.len(), u.len(), false));
            instances += u.len();
            for ix in u.instances {
                self.unit_of.insert((u.kernel, u.age.0, ix), id);
            }
        }
        instances
    }

    /// Account one finished instance; the unit's completion event once it
    /// was the unit's last.
    fn done(
        &mut self,
        kernel: KernelId,
        age: u64,
        indices: &[usize],
        stored: bool,
    ) -> Result<Option<Event>, String> {
        let id = self
            .unit_of
            .remove(&(kernel, age, indices.to_vec()))
            .ok_or_else(|| {
                format!(
                    "kernel {} age {age} {indices:?} finished but was not dispatched",
                    kernel.0
                )
            })?;
        let (len, running, stored_any) = &mut self.units[id];
        *running -= 1;
        *stored_any |= stored;
        Ok((*running == 0).then(|| Event::UnitDone {
            kernel,
            age: Age(age),
            instances: *len,
            stored_any: *stored_any,
            retried: false,
        }))
    }
}

/// Buffer shape of a resolved (`All`-free) store region.
fn shape(region: &Region) -> Extents {
    Extents::new(
        region
            .0
            .iter()
            .map(|sel| match *sel {
                DimSel::Index(_) => 1,
                DimSel::Range { len, .. } => len,
                DimSel::All => unreachable!("trace regions are resolved"),
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2g_core::runtime::NodeBuilder;
    use p2g_core::runtime::TraceOptions;

    /// Run a traced program from `build` and replay it: the replay
    /// dispatches exactly what the run did.
    fn replay_matches_run(build: impl Fn() -> p2g_core::runtime::Program, limits: RunLimits) {
        let report = NodeBuilder::new(build())
            .workers(2)
            .launch(
                limits
                    .clone()
                    .with_trace_options(TraceOptions { capacity: 1 << 18 }),
            )
            .and_then(|n| n.wait())
            .expect("run succeeds");
        let trace = report.trace.expect("tracing was on");
        assert_eq!(trace.dropped, 0);
        let mut fresh = build();
        let spec = Arc::new(fresh.spec().clone());
        let options: Vec<_> = spec
            .kernels
            .iter()
            .map(|k| fresh.options_mut(&k.name).clone())
            .collect();
        let ops = replay_ops(&trace);
        let result =
            replay(spec.clone(), options.clone(), limits.clone(), &ops).expect("replay succeeds");
        assert_eq!(
            result.instances,
            trace.of_kind("InstanceDispatched").count()
        );
        assert_eq!(result.stores, trace.of_kind("StoreApplied").count());

        // Completions carry each unit's instance count: with age watches
        // on every kernel, every age the run dispatched finishes.
        let fields = fresh_fields(&spec);
        let mut analyzer = DependencyAnalyzer::new(
            spec.clone(),
            options,
            HashSet::new(),
            fields.clone(),
            limits,
        );
        let finished = Arc::new(parking_lot::Mutex::new(HashSet::new()));
        for k in 0..spec.kernels.len() {
            let finished = finished.clone();
            let kernel = KernelId(k as u32);
            analyzer.set_age_watch(
                kernel,
                Arc::new(move |age, _| {
                    finished.lock().insert((kernel, age));
                }),
            );
        }
        replay_into(&mut analyzer, &fields, &spec, &ops).expect("replay succeeds");
        let finished = finished.lock();
        for r in trace.of_kind("InstanceDispatched") {
            if let TraceEvent::InstanceDispatched { kernel, age, .. } = &r.event {
                assert!(
                    finished.contains(&(*kernel, *age)),
                    "kernel {} age {age} never finished",
                    kernel.0
                );
            }
        }
    }

    /// A small k-means with `chunk` instances per `assign` unit.
    fn kmeans(chunk: usize) -> p2g_core::runtime::Program {
        let config = p2g_kmeans::KmeansConfig {
            n: 40,
            k: 4,
            iterations: 3,
            ..p2g_kmeans::KmeansConfig::default()
        };
        let (mut program, _) = p2g_kmeans::build_kmeans_program(&config).expect("program builds");
        program.options_mut("assign").chunk_size = chunk;
        program
    }

    /// A two-frame 32×32 MJPEG encode with `chunk` instances per DCT unit.
    fn mjpeg(chunk: usize) -> p2g_core::runtime::Program {
        let video = Arc::new(p2g_mjpeg::SyntheticVideo::new(32, 32, 2, 7));
        let config = p2g_mjpeg::MjpegConfig {
            max_frames: 2,
            fast_dct: true,
            ..p2g_mjpeg::MjpegConfig::default()
        };
        let (mut program, _) =
            p2g_mjpeg::build_mjpeg_program(video, config).expect("program builds");
        for k in ["yDCT", "uDCT", "vDCT"] {
            program.options_mut(k).chunk_size = chunk;
        }
        program
    }

    #[test]
    fn replay_dispatches_what_the_run_dispatched() {
        replay_matches_run(|| kmeans(1), RunLimits::ages(3));
        replay_matches_run(|| mjpeg(1), RunLimits::ages(3));
    }

    /// Multi-instance units, one body at a time or batched (the MJPEG DCT
    /// kernels then run whole-unit batch bodies).
    #[test]
    fn replay_handles_multi_instance_units() {
        replay_matches_run(|| kmeans(8), RunLimits::ages(3));
        replay_matches_run(|| kmeans(8), RunLimits::ages(3).with_batch_exec());
        replay_matches_run(|| mjpeg(4), RunLimits::ages(3).with_batch_exec());
    }
}
