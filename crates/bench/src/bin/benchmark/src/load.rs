//! The load generator: a closed loop for capacity and an open loop for
//! latency, both on at most two sender threads spawned through
//! `saccs_rt::spawn_worker`.
//!
//! The open loop sends on a fixed schedule, `due_i = t0 + i / rate`.
//! `submit` blocks until the reply, so each sender claims the next
//! unsent operation as soon as it is free: a send goes late only when
//! both senders are stuck in slow replies, never because its one owner
//! is while the other idles. Latency runs from the due time, which
//! charges a stall to every send it delays, and the lateness itself is
//! reported.

use crate::workload::{Op, OpStream};
use saccs_core::SaccsConfig;
use saccs_serve::SaccsServer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Sender threads in either loop.
pub const SENDERS: usize = 2;

/// One operation's timeline, in nanoseconds from the loop's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub ingest: bool,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// The reply was admitted, correct and at full fidelity.
    pub ok: bool,
}

impl Sample {
    /// Latency as a user sees it: from when the operation was due.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent it.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Offset of send `i` from the loop's start at `rate` sends per second.
pub fn due_offset_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).round() as u64
}

/// Indices sender `k` of [`SENDERS`] handles in a round-robin split.
pub fn owned_by(k: usize, n: usize) -> impl Iterator<Item = usize> {
    (k..n).step_by(SENDERS)
}

fn nanos_since(start: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// A ranking the service may return: at most `top_k` distinct known
/// entities with finite scores.
pub fn valid_ranking(results: &[(usize, f32)], universe: usize) -> bool {
    let mut ids: Vec<usize> = results.iter().map(|&(e, _)| e).collect();
    ids.sort_unstable();
    ids.dedup();
    results.len() <= SaccsConfig::default().top_k
        && ids.len() == results.len()
        && ids.iter().all(|&e| e < universe)
        && results.iter().all(|(_, s)| s.is_finite())
}

/// Submit one operation and check its reply.
pub fn execute(server: &SaccsServer, op: Op, universe: usize) -> bool {
    match op {
        Op::Rank(request) => server
            .submit(*request)
            .is_ok_and(|r| r.is_full_fidelity() && valid_ranking(&r.results, universe)),
        Op::Ingest { entity, tags } => server.submit_ingest(entity, tags).is_ok(),
    }
}

pub struct OpenLoop {
    /// Every send, ordered by due time.
    pub samples: Vec<Sample>,
    /// From the first due time to the last reply.
    pub wall_s: f64,
}

/// Send `ops` on the fixed schedule at `rate` operations per second.
pub fn open_loop(server: &Arc<SaccsServer>, ops: Vec<Op>, rate: f64, universe: usize) -> OpenLoop {
    let n = ops.len();
    let ops = Arc::new(ops);
    let next = Arc::new(AtomicUsize::new(0));
    // A little head room so both senders are parked before the first due.
    let start = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel();
    let handles: Vec<_> = (0..SENDERS)
        .map(|k| {
            let (server, ops, next, tx) = (
                Arc::clone(server),
                Arc::clone(&ops),
                Arc::clone(&next),
                tx.clone(),
            );
            saccs_rt::spawn_worker(&format!("bench-open-{k}"), move || {
                let mut out = Vec::with_capacity(n);
                loop {
                    // Claims only need to be unique; the counter
                    // publishes nothing else.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let op = ops[i].clone();
                    let ingest = matches!(op, Op::Ingest { .. });
                    let due_ns = due_offset_ns(i, rate);
                    let due = start + Duration::from_nanos(due_ns);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent_ns = nanos_since(start, Instant::now());
                    let ok = execute(&server, op, universe);
                    out.push(Sample {
                        ingest,
                        due_ns,
                        sent_ns,
                        done_ns: nanos_since(start, Instant::now()),
                        ok,
                    });
                }
                // The receiver outlives every sender: it is only dropped
                // after the joins below.
                let _ = tx.send(out);
            })
        })
        .collect();
    drop(tx);
    for handle in handles {
        if handle.join().is_err() {
            panic!("open-loop sender panicked");
        }
    }
    let mut samples: Vec<Sample> = rx.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.due_ns);
    let last = samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
    OpenLoop {
        samples,
        wall_s: last as f64 / 1e9,
    }
}

pub struct ClosedLoop {
    pub completed: u64,
    pub failed: u64,
    /// From the start until the last client's last reply.
    pub wall_s: f64,
}

impl ClosedLoop {
    /// Operations completed per second.
    pub fn rate(&self) -> f64 {
        self.completed as f64 / self.wall_s
    }
}

/// Each client sends its stream's next operation as soon as the
/// previous one returns, until `duration` has passed.
pub fn closed_loop(
    server: &Arc<SaccsServer>,
    streams: Vec<OpStream>,
    duration: Duration,
    universe: usize,
) -> ClosedLoop {
    let start = Instant::now();
    let end = start + duration;
    let (tx, rx) = mpsc::channel();
    let handles: Vec<_> = streams
        .into_iter()
        .enumerate()
        .map(|(k, mut ops)| {
            let (server, tx) = (Arc::clone(server), tx.clone());
            saccs_rt::spawn_worker(&format!("bench-closed-{k}"), move || {
                let (mut completed, mut failed) = (0u64, 0u64);
                while Instant::now() < end {
                    if execute(&server, ops.next_op(), universe) {
                        completed += 1;
                    } else {
                        failed += 1;
                    }
                }
                let _ = tx.send((completed, failed, Instant::now()));
            })
        })
        .collect();
    drop(tx);
    for handle in handles {
        if handle.join().is_err() {
            panic!("closed-loop client panicked");
        }
    }
    let mut out = ClosedLoop {
        completed: 0,
        failed: 0,
        wall_s: 0.0,
    };
    for (completed, failed, finished) in rx {
        out.completed += completed;
        out.failed += failed;
        out.wall_s = out.wall_s.max(finished.duration_since(start).as_secs_f64());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_without_drift() {
        assert_eq!(due_offset_ns(0, 1000.0), 0);
        assert_eq!(due_offset_ns(1, 1000.0), 1_000_000);
        assert_eq!(due_offset_ns(1000, 1000.0), 1_000_000_000);
        // 225/s does not divide a second evenly: each due is rounded on
        // its own, so error never accumulates along the schedule.
        assert_eq!(due_offset_ns(225, 225.0), 1_000_000_000);
        assert_eq!(due_offset_ns(1, 225.0), 4_444_444);
        assert_eq!(due_offset_ns(2, 225.0), 8_888_889);
        for i in 1..10_000 {
            assert!(due_offset_ns(i, 225.0) > due_offset_ns(i - 1, 225.0));
        }
    }

    #[test]
    fn senders_split_the_schedule_round_robin() {
        let a: Vec<usize> = owned_by(0, 7).collect();
        let b: Vec<usize> = owned_by(1, 7).collect();
        assert_eq!(a, vec![0, 2, 4, 6]);
        assert_eq!(b, vec![1, 3, 5]);
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time() {
        // Due at 10 ms, the sender was stuck until 14 ms, the reply took
        // 1 ms: the user waited 5 ms, of which 4 ms is generator lateness.
        let s = Sample {
            ingest: false,
            due_ns: 10_000_000,
            sent_ns: 14_000_000,
            done_ns: 15_000_000,
            ok: true,
        };
        assert_eq!(s.latency_ns(), 5_000_000);
        assert_eq!(s.late_ns(), 4_000_000);
        // Never negative, even if clocks are read out of order.
        let early = Sample {
            sent_ns: 9_000_000,
            ..s
        };
        assert_eq!(early.late_ns(), 0);
    }

    #[test]
    fn rankings_are_checked_for_shape() {
        assert!(valid_ranking(&[(3, 0.5), (1, 0.25)], 10));
        assert!(valid_ranking(&[], 10));
        assert!(!valid_ranking(&[(3, 0.5), (3, 0.25)], 10), "duplicate id");
        assert!(!valid_ranking(&[(10, 0.5)], 10), "unknown entity");
        assert!(!valid_ranking(&[(1, f32::NAN)], 10), "non-finite score");
        let eleven: Vec<(usize, f32)> = (0..11).map(|e| (e, 0.0)).collect();
        assert!(!valid_ranking(&eleven, 20), "longer than top_k");
    }
}
