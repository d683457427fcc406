//! `saccs-serve` — a synchronous multi-worker serving front end for
//! [`SaccsService`].
//!
//! The service's whole rank path is `&self` (atomic breakers, mutexed
//! probe history, an extractor whose models are frozen off the autograd
//! tape), so one instance behind an [`Arc`] can serve any number of
//! threads. This crate adds the machinery a front end needs on top of
//! that:
//!
//! * **Bounded admission.** Requests enter a FIFO queue of configurable
//!   depth ([`ServeConfig::queue_depth`]). Past the limit the server
//!   *sheds*: [`SaccsServer::submit`] returns
//!   `SaccsError::Unavailable { stage: Admission }` immediately instead
//!   of letting the queue (and every queued request's latency) grow
//!   without bound. Sheds are counted on `serve.shed`.
//! * **One claim per tick.** Each worker tick claims the queue's oldest
//!   job and serves it, so an idle worker never waits behind jobs
//!   another worker claimed.
//! * **Admission-time deadlines.** The per-request
//!   [`DeadlineClock`] starts
//!   when the request is *admitted*, not when a worker picks it up —
//!   time spent queued counts against the budget configured in the
//!   service's `ResilienceConfig`, so an overloaded server degrades to
//!   partial results instead of silently serving stale full ones.
//!
//! Workers are dedicated OS threads ([`saccs_rt::spawn_worker`]), not
//! pool tasks: they park on a condvar between requests, which would
//! starve the work-stealing pool that the extraction kernels
//! themselves fan out on.
//!
//! Determinism: replies are bitwise identical to calling
//! [`SaccsService::rank_request`] serially, at every worker count — the
//! concurrency tests in `tests/serve.rs` pin this.

/// Flight recorder: completed-trace ring + slow-exemplar reservoir.
pub mod recorder;

/// Re-exported so callers can configure the recorder without importing
/// the module.
pub use recorder::{FlightRecorder, RecorderConfig};

use saccs_core::resilient::DeadlineClock;
use saccs_core::{RankRequest, RankResponse, SaccsError, SaccsService, SearchApi, Stage};
use saccs_data::Entity;
use saccs_index::IngestReceipt;
use saccs_obs::report::ObsReport;
use saccs_obs::trace::{self, TraceContext, TraceEvent};
use saccs_text::SubjectiveTag;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Recover the guard from a poisoned lock: a worker that panicked while
/// holding it cannot leave the server dead (same policy as `saccs-rt`).
fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Front-end tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads sharing the one service instance.
    pub workers: usize,
    /// Maximum queued (admitted but not yet claimed) requests; further
    /// submissions are shed.
    pub queue_depth: usize,
    /// Inert: a worker tick claims one job whatever this says. Kept so
    /// existing configurations compile.
    pub batch: usize,
    /// Install a flight recorder: every admitted request runs under a
    /// [`TraceContext`] and its completed trace lands in the recorder's
    /// ring. `None` (the default) keeps the single-atomic-load inert
    /// fast path — rankings are bitwise identical either way.
    pub recorder: Option<RecorderConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_depth: 64,
            batch: 4,
            recorder: None,
        }
    }
}

impl ServeConfig {
    /// Enable the flight recorder with `config`.
    pub fn with_recorder(mut self, config: RecorderConfig) -> Self {
        self.recorder = Some(config);
        self
    }

    fn sanitized(self) -> ServeConfig {
        ServeConfig {
            workers: self.workers.max(1),
            queue_depth: self.queue_depth.max(1),
            batch: self.batch,
            recorder: self.recorder.map(RecorderConfig::sanitized),
        }
    }
}

/// Counters accumulated over the server's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests rejected at admission (queue full or shut down).
    pub shed: u64,
    /// Rank requests completed by a worker.
    pub served: u64,
    /// Ingest jobs completed by a worker.
    pub ingested: u64,
    /// Inert, always 0: workers no longer warm the encoder across a
    /// claimed batch. Kept so existing readers compile.
    pub batched_warms: u64,
}

/// What a worker hands back through a [`ReplySlot`]: a rank response or
/// an ingest receipt, matching the submitted [`JobInput`] kind.
enum Reply {
    Rank(RankResponse),
    Ingest(IngestReceipt),
}

/// One caller's rendezvous with the worker that serves its request.
struct ReplySlot {
    result: Mutex<Option<Reply>>,
    ready: Condvar,
}

impl ReplySlot {
    fn new() -> ReplySlot {
        ReplySlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn complete(&self, reply: Reply) {
        *relock(self.result.lock()) = Some(reply);
        self.ready.notify_one();
    }

    fn wait(&self) -> Reply {
        let mut guard = relock(self.result.lock());
        loop {
            match guard.take() {
                Some(reply) => return reply,
                None => guard = relock(self.ready.wait(guard)),
            }
        }
    }
}

/// The work carried by an admitted job: a rank request, or a review to
/// ingest into the service's live index. Both kinds flow through the
/// same bounded queue, so overload sheds rank and ingest traffic alike.
/// The rank request is boxed so a queued ingest job does not carry a
/// rank request's footprint.
enum JobInput {
    Rank(Box<RankRequest>),
    Ingest {
        entity_id: usize,
        review_tags: Vec<SubjectiveTag>,
    },
}

/// An admitted request waiting for a worker.
struct Job {
    input: JobInput,
    /// Started at admission: queue time spends the deadline budget.
    clock: DeadlineClock,
    reply: Arc<ReplySlot>,
    /// The request's trace context (recorder enabled only), created at
    /// admission and adopted by whichever worker serves the request.
    trace: Option<Arc<TraceContext>>,
}

struct State {
    queue: VecDeque<Job>,
    /// Test hook: a paused server admits (and sheds) but does not serve,
    /// making queue-depth behavior deterministic.
    paused: bool,
    shutdown: bool,
}

struct Shared {
    service: Arc<SaccsService>,
    entities: Vec<Entity>,
    config: ServeConfig,
    state: Mutex<State>,
    /// Workers park here when the queue is empty or the server paused.
    work: Condvar,
    submitted: AtomicU64,
    shed: AtomicU64,
    served: AtomicU64,
    ingested: AtomicU64,
    /// Present iff `config.recorder` is set.
    recorder: Option<Arc<FlightRecorder>>,
    /// The report cut at shutdown, after the queue drained.
    final_report: Mutex<Option<ObsReport>>,
}

impl Shared {
    /// Shared admission path for both job kinds: one bounded queue, one
    /// shed policy, one deadline clock started at admission.
    fn admit(&self, input: JobInput) -> Result<Reply, SaccsError> {
        let clock = DeadlineClock::start(self.service.resilience().deadline);
        let reply = Arc::new(ReplySlot::new());
        // Trace ids are deterministic (caller-assigned or derived from
        // request content) — never wallclock — so recorder reports are a
        // pure function of the request stream.
        let trace = match &input {
            JobInput::Rank(request) if self.recorder.is_some() => {
                let ctx = TraceContext::new(request.trace_key());
                ctx.record(TraceEvent::Admitted);
                Some(ctx)
            }
            // Ingest jobs are not rank-shaped, so they stay out of the
            // recorder ring; their `ingest` trace events land in
            // whatever context the ingesting caller installs.
            _ => None,
        };
        {
            let mut st = relock(self.state.lock());
            if st.shutdown || st.queue.len() >= self.config.queue_depth {
                drop(st);
                self.shed.fetch_add(1, Ordering::Relaxed);
                saccs_obs::counter!("serve.shed").inc();
                if let Some(rec) = &self.recorder {
                    rec.note_shed();
                }
                return Err(SaccsError::Unavailable {
                    stage: Stage::Admission,
                });
            }
            st.queue.push_back(Job {
                input,
                clock,
                reply: Arc::clone(&reply),
                trace,
            });
        }
        saccs_obs::gauge!("serve.queue.depth").add(1.0);
        saccs_obs::gauge!("serve.inflight").add(1.0);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        saccs_obs::counter!("serve.submitted").inc();
        self.work.notify_one();
        Ok(reply.wait())
    }

    fn submit(&self, request: RankRequest) -> Result<RankResponse, SaccsError> {
        match self.admit(JobInput::Rank(Box::new(request)))? {
            Reply::Rank(response) => Ok(response),
            // A rank job always completes with a rank reply; treat a
            // mismatch as a shed rather than panicking a caller thread.
            Reply::Ingest(_) => Err(SaccsError::Unavailable {
                stage: Stage::Admission,
            }),
        }
    }

    fn submit_ingest(
        &self,
        entity_id: usize,
        review_tags: Vec<SubjectiveTag>,
    ) -> Result<IngestReceipt, SaccsError> {
        saccs_obs::counter!("serve.ingest.submitted").inc();
        match self.admit(JobInput::Ingest {
            entity_id,
            review_tags,
        })? {
            Reply::Ingest(receipt) => Ok(receipt),
            Reply::Rank(_) => Err(SaccsError::Unavailable {
                stage: Stage::Admission,
            }),
        }
    }

    fn worker_loop(&self) {
        let api = SearchApi::new(&self.entities);
        loop {
            let job = {
                let mut st = relock(self.state.lock());
                loop {
                    if st.shutdown && st.queue.is_empty() {
                        return;
                    }
                    if !st.paused {
                        if let Some(job) = st.queue.pop_front() {
                            break job;
                        }
                    }
                    st = relock(self.work.wait(st));
                }
            };
            saccs_obs::gauge!("serve.queue.depth").sub(1.0);
            let Job {
                input,
                clock,
                reply,
                trace: job_trace,
            } = job;
            // Queue wait is time on the admission clock before this
            // worker adopted the job — attributed separately from
            // service time in the trace. (DeadlineClock, not a fresh
            // Instant: queue time already spends the budget.)
            let queue_ns = job_trace.as_ref().map(|ctx| {
                let nanos = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
                ctx.record(TraceEvent::QueueWait { nanos });
                nanos
            });
            match input {
                JobInput::Rank(request) => {
                    let response = {
                        // Adopt the request's trace for the duration of
                        // the rank call so every stage span and fault
                        // event lands in the owning request's buffer.
                        let _scope = job_trace
                            .as_ref()
                            .map(|ctx| trace::install(Arc::clone(ctx)));
                        self.service.rank_request_at(&request, &api, clock)
                    };
                    if let (Some(rec), Some(ctx)) = (&self.recorder, &job_trace) {
                        rec.complete(ctx, &response, queue_ns.unwrap_or(0));
                    }
                    self.served.fetch_add(1, Ordering::Relaxed);
                    saccs_obs::counter!("serve.served").inc();
                    reply.complete(Reply::Rank(response));
                }
                JobInput::Ingest {
                    entity_id,
                    review_tags,
                } => {
                    let receipt = self.service.ingest(entity_id, &review_tags);
                    self.ingested.fetch_add(1, Ordering::Relaxed);
                    saccs_obs::counter!("serve.ingest.served").inc();
                    reply.complete(Reply::Ingest(receipt));
                }
            }
            saccs_obs::gauge!("serve.inflight").sub(1.0);
        }
    }
}

/// The serving front end: `workers` threads sharing one
/// [`SaccsService`] through a bounded, sheddable admission queue.
pub struct SaccsServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl SaccsServer {
    /// Start `config.workers` worker threads over `service`. The server
    /// owns the entity table the objective `SearchApi` answers from
    /// (each worker builds its own borrow of it).
    pub fn start(
        service: Arc<SaccsService>,
        entities: Vec<Entity>,
        config: ServeConfig,
    ) -> SaccsServer {
        let config = config.sanitized();
        let workers = config.workers;
        let recorder = config.recorder.map(|rc| Arc::new(FlightRecorder::new(rc)));
        let shared = Arc::new(Shared {
            service,
            entities,
            config,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                paused: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            submitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            ingested: AtomicU64::new(0),
            recorder,
            final_report: Mutex::new(None),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                saccs_rt::spawn_worker(&format!("serve-{i}"), move || shared.worker_loop())
            })
            .collect();
        SaccsServer {
            shared,
            workers: handles,
        }
    }

    /// Submit one request and block until it is served (or shed).
    ///
    /// Sheds — queue at capacity, or server shut down — return
    /// `SaccsError::Unavailable { stage: Admission }` without touching
    /// Algorithm 1. Malformed requests (bad filter DSL, non-finite
    /// boost, zero `top_k`) are rejected at the `sanitized()` seam as
    /// `SaccsError::InvalidRequest` before admission — a bad request is
    /// a typed error to the caller, never a queued job. Admitted
    /// requests always return a [`RankResponse`]; stage failures
    /// surface as degradation events inside it, exactly as
    /// [`SaccsService::rank_request`] reports them.
    pub fn submit(&self, request: RankRequest) -> Result<RankResponse, SaccsError> {
        self.shared.submit(request.sanitized()?)
    }

    /// Submit one review for ingestion into the service's live index and
    /// block until a worker applied it. Goes through the same bounded
    /// admission queue as rank traffic — overload sheds both alike with
    /// `SaccsError::Unavailable { stage: Admission }`.
    ///
    /// An `entity_id` that is not in the server's entity table is
    /// rejected before admission as `SaccsError::InvalidRequest { field:
    /// "entity_id" }`, counted neither as submitted nor as shed: no
    /// request could ever rank that review, and the index sizes its
    /// probe accumulators by the largest entity id it holds.
    pub fn submit_ingest(
        &self,
        entity_id: usize,
        review_tags: Vec<SubjectiveTag>,
    ) -> Result<IngestReceipt, SaccsError> {
        if !self.shared.entities.iter().any(|e| e.id == entity_id) {
            return Err(SaccsError::InvalidRequest {
                field: "entity_id",
                reason: format!("entity {entity_id} is not in the served catalog"),
            });
        }
        self.shared.submit_ingest(entity_id, review_tags)
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<SaccsService> {
        &self.shared.service
    }

    /// Admitted-but-unclaimed requests right now.
    pub fn queue_len(&self) -> usize {
        relock(self.shared.state.lock()).queue.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            served: self.shared.served.load(Ordering::Relaxed),
            ingested: self.shared.ingested.load(Ordering::Relaxed),
            batched_warms: 0,
        }
    }

    /// Stop claiming queued requests (admission and shedding continue).
    /// Tests use this to fill the queue to an exact depth before
    /// releasing the workers with [`SaccsServer::resume`].
    pub fn pause(&self) {
        relock(self.shared.state.lock()).paused = true;
    }

    /// Resume claiming queued requests.
    pub fn resume(&self) {
        relock(self.shared.state.lock()).paused = false;
        self.shared.work.notify_all();
    }

    /// The installed flight recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.shared.recorder.as_ref()
    }

    /// Cut an on-demand report from the flight recorder (recorder
    /// enabled only): everything still in the ring right now, plus the
    /// slow-exemplar reservoir.
    pub fn obs_report(&self) -> Option<ObsReport> {
        self.shared.recorder.as_ref().map(|rec| rec.report())
    }

    /// The report cut once at shutdown, after the queue drained and the
    /// workers exited. `None` before shutdown or without a recorder.
    pub fn final_report(&self) -> Option<ObsReport> {
        relock(self.shared.final_report.lock()).clone()
    }

    /// Drain the queue and stop the workers. Queued requests are still
    /// served; new submissions shed. Called automatically on drop.
    pub fn shutdown(&mut self) {
        {
            let mut st = relock(self.shared.state.lock());
            st.shutdown = true;
            st.paused = false;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(rec) = &self.shared.recorder {
            let mut slot = relock(self.shared.final_report.lock());
            if slot.is_none() {
                *slot = Some(rec.report());
            }
        }
    }
}

impl Drop for SaccsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_core::{RankRequest, SaccsConfig};
    use saccs_index::index::IndexConfig;
    use saccs_index::{LiveConfig, LiveIndex};
    use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};

    fn tag(op: &str, asp: &str) -> SubjectiveTag {
        SubjectiveTag::new(op, asp)
    }

    /// A service over a memory-only index of `reviews` (each entity's
    /// tags in its first of `per_entity` reviews) with `tags` indexed,
    /// optionally scanning its fallback probes.
    fn build(
        reviews: &[(usize, Vec<SubjectiveTag>)],
        per_entity: usize,
        tags: &[SubjectiveTag],
        scan: bool,
    ) -> Arc<SaccsService> {
        let sim = ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants));
        let mut live = LiveIndex::new(
            sim.clone(),
            IndexConfig::default(),
            LiveConfig {
                seal_every: 0,
                max_segments: 0,
            },
        );
        if scan {
            live = live.with_custom_similarity(sim);
        }
        for (entity_id, review_tags) in reviews {
            live.add_review(*entity_id, review_tags);
            for _ in 1..per_entity {
                live.add_review(*entity_id, &[]);
            }
        }
        live.add_tags(tags);
        Arc::new(SaccsService::with_live_index(
            Arc::new(live),
            SaccsConfig::default(),
        ))
    }

    /// A service with no extractor: tags-input requests exercise the
    /// whole queue/shed/serve machinery without model training.
    fn service() -> Arc<SaccsService> {
        build(
            &[
                (0, vec![tag("delicious", "food"), tag("friendly", "staff")]),
                (1, vec![tag("delicious", "food")]),
                (2, vec![tag("friendly", "staff")]),
            ],
            5,
            &[tag("delicious", "food"), tag("nice", "staff")],
            false,
        )
    }

    fn entities(n: usize) -> Vec<Entity> {
        use rand::{rngs::StdRng, SeedableRng};
        let lex = Lexicon::new(Domain::Restaurants);
        let mut rng = StdRng::seed_from_u64(5);
        (0..n).map(|i| Entity::sample(i, &lex, &mut rng)).collect()
    }

    fn request() -> RankRequest {
        RankRequest::tags(vec![tag("delicious", "food"), tag("nice", "staff")])
    }

    #[test]
    fn served_reply_matches_direct_rank_request() {
        let svc = service();
        let ents = entities(3);
        let expected = {
            let api = SearchApi::new(&ents);
            svc.rank_request(&request(), &api).results
        };
        let server = SaccsServer::start(Arc::clone(&svc), ents, ServeConfig::default());
        let response = server.submit(request()).expect("admitted");
        assert_eq!(response.results, expected);
        assert!(response.is_full_fidelity());
        assert_eq!(server.stats().served, 1);
    }

    #[test]
    fn paused_server_sheds_past_queue_depth() {
        let server = SaccsServer::start(
            service(),
            entities(3),
            ServeConfig {
                workers: 1,
                queue_depth: 2,
                ..ServeConfig::default()
            },
        );
        server.pause();
        // Fill the queue to exactly `queue_depth` from helper threads
        // (submit blocks until served, so the fillers stay parked).
        let server = Arc::new(server);
        let mut fillers = Vec::new();
        for i in 0..2 {
            let server = Arc::clone(&server);
            fillers.push(saccs_rt::spawn_worker(
                &format!("test-fill-{i}"),
                move || {
                    let response = server.submit(request());
                    assert!(response.is_ok(), "queued request was shed");
                },
            ));
        }
        while server.queue_len() < 2 {
            std::thread::yield_now();
        }
        // The queue is full: the next submission sheds immediately.
        let shed = server.submit(request());
        assert_eq!(
            shed.expect_err("must shed").stage(),
            Stage::Admission,
            "shed error must be attributed to admission"
        );
        assert_eq!(server.stats().shed, 1);
        server.resume();
        for f in fillers {
            f.join().expect("filler thread");
        }
        assert_eq!(server.stats().served, 2);
        assert_eq!(server.stats().submitted, 2);
    }

    #[test]
    fn shutdown_drains_queued_requests_then_sheds_new_ones() {
        let server = SaccsServer::start(service(), entities(3), ServeConfig::default());
        server.pause();
        let server = Arc::new(server);
        let (tx, rx) = std::sync::mpsc::channel();
        let filler = {
            let server = Arc::clone(&server);
            saccs_rt::spawn_worker("test-fill", move || {
                let response = server.submit(request()).expect("drained on shutdown");
                tx.send(response).expect("send response");
            })
        };
        while server.queue_len() < 1 {
            std::thread::yield_now();
        }
        // Drop the only other handle: Drop::drop runs shutdown, which
        // must serve the queued request before the workers exit.
        // (Arc::try_unwrap fails while the filler holds a clone, so
        // signal shutdown through the state instead.)
        {
            let mut st = relock(server.shared.state.lock());
            st.shutdown = true;
            st.paused = false;
        }
        server.shared.work.notify_all();
        filler.join().expect("filler thread");
        let response = rx.recv().expect("response delivered");
        assert!(!response.results.is_empty());
        let post = server.submit(request());
        assert_eq!(post.expect_err("shut down").stage(), Stage::Admission);
    }

    #[test]
    fn concurrent_tag_submissions_all_match_serial() {
        let svc = service();
        let ents = entities(3);
        let expected = {
            let api = SearchApi::new(&ents);
            svc.rank_request(&request(), &api).results
        };
        let server = Arc::new(SaccsServer::start(
            Arc::clone(&svc),
            ents,
            ServeConfig {
                workers: 4,
                queue_depth: 64,
                ..ServeConfig::default()
            },
        ));
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let server = Arc::clone(&server);
                let tx = tx.clone();
                saccs_rt::spawn_worker(&format!("test-sub-{i}"), move || {
                    let results = server.submit(request()).expect("admitted").results;
                    tx.send(results).expect("send results");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("submitter");
        }
        drop(tx);
        for results in rx {
            assert_eq!(results, expected);
        }
        assert_eq!(server.stats().served, 16);
        assert_eq!(server.stats().shed, 0);
    }

    #[test]
    fn cell_index_serving_is_bitwise_identical_to_scan_across_worker_counts() {
        // An unknown probe tag forces the θ_filter fallback on every
        // request; the default index answers it through its cell index
        // and must serve bit-for-bit what the scan reference (the same
        // similarity as a custom one) serves, at every worker count.
        let build = |scan: bool| {
            build(
                &[
                    (0, vec![tag("delicious", "food"), tag("friendly", "staff")]),
                    (1, vec![tag("delicious", "food"), tag("cozy", "ambiance")]),
                    (2, vec![tag("friendly", "staff"), tag("bland", "food")]),
                    (3, vec![tag("tasty", "pasta"), tag("great", "menu")]),
                ],
                4,
                &[
                    tag("delicious", "food"),
                    tag("friendly", "staff"),
                    tag("cozy", "ambiance"),
                    tag("tasty", "pasta"),
                    tag("great", "menu"),
                ],
                scan,
            )
        };
        // "amazing meal" is not indexed → fallback probe on both sides.
        let probe_request = || RankRequest::tags(vec![tag("amazing", "meal")]);
        let ents = entities(4);
        let expected = {
            let api = SearchApi::new(&ents);
            build(true).rank_request(&probe_request(), &api).results
        };
        assert!(!expected.is_empty(), "fallback probe must match something");
        for workers in [1usize, 2, 8] {
            let server = Arc::new(SaccsServer::start(
                build(false),
                ents.clone(),
                ServeConfig {
                    workers,
                    queue_depth: 64,
                    ..ServeConfig::default()
                },
            ));
            let (tx, rx) = std::sync::mpsc::channel();
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let server = Arc::clone(&server);
                    let tx = tx.clone();
                    saccs_rt::spawn_worker(&format!("test-cells-{workers}-{i}"), move || {
                        let results = server.submit(probe_request()).expect("admitted").results;
                        tx.send(results).expect("send results");
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("submitter");
            }
            drop(tx);
            for results in rx {
                assert_eq!(
                    results.len(),
                    expected.len(),
                    "cells/scan length diverged at {workers} workers"
                );
                for ((ea, sa), (eb, sb)) in results.iter().zip(&expected) {
                    assert_eq!(ea, eb, "entity order diverged at {workers} workers");
                    assert_eq!(
                        sa.to_bits(),
                        sb.to_bits(),
                        "score bits diverged at {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn recorder_captures_trace_with_queue_wait_attribution() {
        let mut server = SaccsServer::start(
            service(),
            entities(3),
            ServeConfig::default().with_recorder(RecorderConfig::default()),
        );
        server.submit(request().with_trace_id(7)).expect("admitted");
        let report = server.obs_report().expect("recorder installed");
        assert_eq!(report.requests, 1);
        let trace = &report.traces[0];
        assert_eq!(trace.id, 7, "caller-assigned trace id is preserved");
        let labels: Vec<String> = trace.events.iter().map(|e| e.normal()).collect();
        assert_eq!(labels[0], "admitted", "admission is the first event");
        assert!(labels.contains(&"queue_wait".to_string()));
        assert!(
            labels.contains(&"stage_exit:algo1.probe".to_string()),
            "stage spans forward into the owning trace: {labels:?}"
        );
        assert!(report.stages.contains_key("serve.queue_wait"));
        server.shutdown();
        let fin = server.final_report().expect("shutdown cuts a report");
        assert_eq!(fin.requests, 1);
    }
}
