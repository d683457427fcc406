//! The flight recorder: a fixed-capacity ring of completed request
//! traces plus a slow-exemplar reservoir, folded into a deterministic
//! [`ObsReport`] on drain/shutdown or on demand.
//!
//! The ring claim is lock-free (one `fetch_add` on the head counter
//! picks the slot); each slot then takes its own uncontended mutex only
//! to swap the record in, so completing workers never serialize against
//! each other on a single structure. The exemplar reservoir is
//! tail-sampling by latency: the eight slowest traces survive even
//! after the ring has wrapped past them. Each request's trace buffers
//! up to `saccs_obs::trace::DEFAULT_EVENT_CAP` events.

use saccs_core::RankResponse;
use saccs_obs::report::ObsReport;
use saccs_obs::trace::TraceContext;
use saccs_obs::TraceRecord;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Slowest-trace reservoir size (survives ring wrap-around).
const EXEMPLARS: usize = 8;

/// Flight-recorder tuning, attached to `ServeConfig::recorder`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Completed-trace ring capacity (oldest entries are overwritten).
    pub ring: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig { ring: 128 }
    }
}

impl RecorderConfig {
    pub(crate) fn sanitized(self) -> RecorderConfig {
        RecorderConfig {
            ring: self.ring.max(1),
        }
    }
}

/// Per-server recorder of completed request traces.
pub struct FlightRecorder {
    ring: Vec<Mutex<Option<TraceRecord>>>,
    head: AtomicUsize,
    shed: AtomicU64,
    completed: AtomicU64,
    /// The `EXEMPLARS` slowest traces seen so far, sorted by
    /// (total latency desc, trace id asc).
    exemplars: Mutex<Vec<TraceRecord>>,
    queue_hist: Arc<saccs_obs::Histogram>,
    total_hist: Arc<saccs_obs::Histogram>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("ring", &self.ring.len())
            .field("completed", &self.completed())
            .field("shed", &self.shed.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// An empty recorder with `config` (sanitized here).
    pub fn new(config: RecorderConfig) -> FlightRecorder {
        let config = config.sanitized();
        FlightRecorder {
            ring: (0..config.ring).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            exemplars: Mutex::new(Vec::new()),
            queue_hist: saccs_obs::registry().histogram("serve.queue_wait"),
            total_hist: saccs_obs::registry().histogram("serve.trace.total"),
        }
    }

    /// Requests completed through the recorder so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Count a request shed at admission (no trace exists for it).
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one finished request into the ring, the exemplar reservoir
    /// and the `serve.queue_wait` / `serve.trace.total` histograms.
    pub fn complete(&self, ctx: &TraceContext, response: &RankResponse, queue_ns: u64) {
        let total_ns = u64::try_from(response.elapsed.as_nanos()).unwrap_or(u64::MAX);
        let record = TraceRecord {
            id: ctx.id(),
            total_ns,
            queue_ns,
            degraded: response.degradation.is_degraded(),
            dropped: ctx.dropped(),
            events: ctx.events(),
        };
        self.queue_hist.record(queue_ns);
        self.total_hist.record(total_ns);
        self.completed.fetch_add(1, Ordering::Relaxed);
        {
            let mut reservoir = relock(self.exemplars.lock());
            // Steady-state fast path: a request no slower than the
            // current worst exemplar can't enter a full reservoir, so
            // skip the clone and the re-sort entirely.
            let qualifies = reservoir.len() < EXEMPLARS
                || reservoir.last().is_some_and(|worst| {
                    total_ns > worst.total_ns
                        || (total_ns == worst.total_ns && record.id < worst.id)
                });
            if qualifies {
                reservoir.push(record.clone());
                reservoir.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.id.cmp(&b.id)));
                reservoir.truncate(EXEMPLARS);
            }
        }
        let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.ring.len();
        *relock(self.ring[slot].lock()) = Some(record);
    }

    /// Build the deterministic report from everything still in the ring
    /// plus the exemplar reservoir. Callable at any time; the serve
    /// front end also cuts one automatically at shutdown.
    pub fn report(&self) -> ObsReport {
        let records: Vec<TraceRecord> = self
            .ring
            .iter()
            .filter_map(|slot| relock(slot.lock()).clone())
            .collect();
        let mut report =
            ObsReport::from_traces(records, self.shed.load(Ordering::Relaxed), EXEMPLARS);
        // The reservoir outlives ring wrap-around, so it is the
        // authoritative slow-exemplar set.
        report.exemplars = relock(self.exemplars.lock()).clone();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_core::resilient::Degradation;
    use saccs_obs::trace::TraceEvent;
    use std::time::Duration;

    fn response(elapsed_ns: u64) -> RankResponse {
        RankResponse {
            results: vec![(1, 0.5)],
            degradation: Degradation::default(),
            elapsed: Duration::from_nanos(elapsed_ns),
        }
    }

    #[test]
    fn ring_wraps_but_exemplar_reservoir_keeps_the_slowest() {
        let rec = FlightRecorder::new(RecorderConfig { ring: 2 });
        // Twelve requests through a 2-slot ring, id 0 the slowest and the
        // rest slower with each id: id 0 is evicted from the ring but
        // must survive in the reservoir, which drops ids 1–4.
        let requests = 12u64;
        for id in 0..requests {
            let total = if id == 0 { 90_000 } else { id * 1_000 };
            let ctx = TraceContext::new(id);
            ctx.record(TraceEvent::Admitted);
            rec.complete(&ctx, &response(total), 100);
        }
        assert_eq!(rec.completed(), requests);
        let report = rec.report();
        assert_eq!(report.requests, 2, "ring holds the last two");
        let ring_ids: Vec<u64> = report.traces.iter().map(|t| t.id).collect();
        assert_eq!(ring_ids, vec![10, 11]);
        let exemplar_ids: Vec<u64> = report.exemplars.iter().map(|t| t.id).collect();
        assert_eq!(
            exemplar_ids,
            vec![0, 11, 10, 9, 8, 7, 6, 5],
            "the {EXEMPLARS} slowest, slowest-first, beyond the ring"
        );
    }

    #[test]
    fn shed_counts_surface_in_the_report() {
        let rec = FlightRecorder::new(RecorderConfig::default());
        rec.note_shed();
        rec.note_shed();
        assert_eq!(rec.report().shed, 2);
        assert_eq!(rec.report().requests, 0);
    }
}
