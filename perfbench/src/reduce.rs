//! Reduction of the runtime's `RunTrace` to per-layer numbers.
//!
//! The benchmark adds no trace events of its own inside the program: it
//! reads the existing `InstanceDispatched`, `BodyStart`/`BodyEnd`,
//! `StoreApplied`, `AnalyzerBatch` and `AgeRetired` records and pairs them
//! up here.

use std::collections::{BTreeMap, HashMap};

use p2g_core::runtime::{RunTrace, TraceEvent};

/// Per-layer totals accumulated over one or more traces.
#[derive(Debug, Default, Clone)]
pub struct TraceLayers {
    /// `StoreApplied` records from kernel bodies (field → analyzer events).
    pub store_events: usize,
    /// `AnalyzerBatch` records and the events they drained.
    pub analyzer_batches: usize,
    pub analyzer_batch_events: usize,
    /// Slabs retired by age GC (`AgeRetired.collected`).
    pub gc_collected: usize,
    /// Dispatch → body start, per first-attempt instance, microseconds.
    pub ready_wait_us: Vec<f64>,
    /// Body durations per kernel name, nanoseconds.
    pub body_ns: BTreeMap<String, Vec<f64>>,
    /// Events lost to ring overflow, summed over the traces.
    pub dropped: u64,
}

type InstanceKey = (u32, u64, Vec<usize>);

impl TraceLayers {
    /// Fold one trace into the totals.
    pub fn add(&mut self, trace: &RunTrace) {
        self.dropped += trace.dropped;
        let mut dispatched: HashMap<InstanceKey, u64> = HashMap::new();
        let mut started: HashMap<(u32, InstanceKey, u32), u64> = HashMap::new();
        for r in &trace.records {
            match &r.event {
                TraceEvent::InstanceDispatched {
                    kernel,
                    age,
                    indices,
                } => {
                    dispatched.insert((kernel.0, *age, indices.clone()), r.ts_ns);
                }
                TraceEvent::BodyStart {
                    kernel,
                    age,
                    indices,
                    attempt,
                } => {
                    let key = (kernel.0, *age, indices.clone());
                    if *attempt == 0 {
                        if let Some(at) = dispatched.remove(&key) {
                            self.ready_wait_us
                                .push(r.ts_ns.saturating_sub(at) as f64 / 1e3);
                        }
                    }
                    started.insert((r.tid, key, *attempt), r.ts_ns);
                }
                TraceEvent::BodyEnd {
                    kernel,
                    age,
                    indices,
                    attempt,
                    ..
                } => {
                    let key = (r.tid, (kernel.0, *age, indices.clone()), *attempt);
                    if let Some(at) = started.remove(&key) {
                        let name = trace.spec().kernel(*kernel).name.clone();
                        self.body_ns
                            .entry(name)
                            .or_default()
                            .push(r.ts_ns.saturating_sub(at) as f64);
                    }
                }
                TraceEvent::StoreApplied {
                    kernel: Some(_), ..
                } => self.store_events += 1,
                TraceEvent::AnalyzerBatch { events } => {
                    self.analyzer_batches += 1;
                    self.analyzer_batch_events += events;
                }
                TraceEvent::AgeRetired { collected, .. } => self.gc_collected += collected,
                _ => {}
            }
        }
    }

    /// Mean events drained per analyzer batch.
    pub fn events_per_batch(&self) -> f64 {
        if self.analyzer_batches == 0 {
            0.0
        } else {
            self.analyzer_batch_events as f64 / self.analyzer_batches as f64
        }
    }

    /// Sum of every paired body duration, nanoseconds.
    pub fn body_ns_total(&self) -> f64 {
        self.body_ns.values().flatten().sum()
    }

    /// Share of the workers' wall time spent inside kernel bodies.
    pub fn body_share(&self, workers: usize, wall_ns: f64) -> f64 {
        if wall_ns <= 0.0 || workers == 0 {
            0.0
        } else {
            self.body_ns_total() / (workers as f64 * wall_ns)
        }
    }

    /// Median body duration of one kernel, nanoseconds (0 if it never ran).
    pub fn body_p50_ns(&self, kernel: &str) -> f64 {
        self.body_ns
            .get(kernel)
            .map_or(0.0, |v| crate::stats::median(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use p2g_core::field::{FieldId, Region};
    use p2g_core::graph::KernelId;
    use p2g_core::runtime::TraceRecord;

    fn rec(ts_ns: u64, tid: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord { ts_ns, tid, event }
    }

    /// Two `assign` instances on two workers plus the analyzer's records:
    /// every number below is worked out by hand from these timestamps.
    fn hand_trace() -> RunTrace {
        let spec = Arc::new(p2g_kmeans::pipeline::kmeans_spec(4, 2, 2));
        let assign = KernelId(
            spec.kernels
                .iter()
                .position(|k| k.name == "assign")
                .expect("kmeans has assign") as u32,
        );
        let store = |ts, tid, x: usize| {
            rec(
                ts,
                tid,
                TraceEvent::StoreApplied {
                    kernel: Some(assign),
                    field: FieldId(2),
                    age: 0,
                    region: Region::point(&[x]),
                    elements: 1,
                    deduped: 0,
                    age_complete: false,
                },
            )
        };
        let inst = |x: usize| (assign, 0u64, vec![x]);
        let dispatched = |ts, x| {
            let (kernel, age, indices) = inst(x);
            rec(
                ts,
                0,
                TraceEvent::InstanceDispatched {
                    kernel,
                    age,
                    indices,
                },
            )
        };
        let start = |ts, tid, x, attempt| {
            let (kernel, age, indices) = inst(x);
            rec(
                ts,
                tid,
                TraceEvent::BodyStart {
                    kernel,
                    age,
                    indices,
                    attempt,
                },
            )
        };
        let end = |ts, tid, x, attempt| {
            let (kernel, age, indices) = inst(x);
            rec(
                ts,
                tid,
                TraceEvent::BodyEnd {
                    kernel,
                    age,
                    indices,
                    attempt,
                    ok: true,
                },
            )
        };
        let records = vec![
            rec(100, 0, TraceEvent::AnalyzerBatch { events: 3 }),
            dispatched(1_000, 0),
            dispatched(1_500, 1),
            start(3_000, 1, 0, 0),
            end(4_000, 1, 0, 0),
            store(4_100, 1, 0),
            start(9_500, 2, 1, 0),
            end(12_500, 2, 1, 0),
            store(12_600, 2, 1),
            rec(13_000, 0, TraceEvent::AnalyzerBatch { events: 1 }),
            // A retry of instance 0: its body counts, its wait does not.
            start(20_000, 1, 0, 1),
            end(20_500, 1, 0, 1),
            rec(
                21_000,
                0,
                TraceEvent::AgeRetired {
                    field: FieldId(2),
                    below: 1,
                    collected: 2,
                },
            ),
        ];
        RunTrace::from_records(spec, records, 7, vec!["analyzer".into(); 3])
    }

    #[test]
    fn reduces_a_hand_built_trace() {
        let mut layers = TraceLayers::default();
        layers.add(&hand_trace());
        assert_eq!(layers.store_events, 2);
        assert_eq!(layers.analyzer_batches, 2);
        assert_eq!(layers.events_per_batch(), 2.0);
        assert_eq!(layers.gc_collected, 2);
        assert_eq!(layers.dropped, 7);
        // Dispatch → first start: 2.0 µs and 8.0 µs.
        assert_eq!(layers.ready_wait_us, vec![2.0, 8.0]);
        // Bodies: 1000 ns, 3000 ns and the 500 ns retry.
        assert_eq!(layers.body_ns["assign"], vec![1_000.0, 3_000.0, 500.0]);
        assert_eq!(layers.body_p50_ns("assign"), 1_000.0);
        assert_eq!(layers.body_p50_ns("refine"), 0.0);
        assert_eq!(layers.body_ns_total(), 4_500.0);
        // 4.5 µs of bodies over 2 workers × 20 µs of wall.
        assert!((layers.body_share(2, 20_000.0) - 0.1125).abs() < 1e-12);
    }

    #[test]
    fn totals_accumulate_across_traces() {
        let mut layers = TraceLayers::default();
        layers.add(&hand_trace());
        layers.add(&hand_trace());
        assert_eq!(layers.store_events, 4);
        assert_eq!(layers.ready_wait_us.len(), 4);
        assert_eq!(layers.dropped, 14);
    }
}
