//! The serving engine: a long-lived executor that owns data graphs and
//! runs many queries concurrently.
//!
//! # Architecture
//!
//! An [`Engine`] owns a registry of named graphs (each an
//! `Arc<Graph>` plus an optional shared [`PlanCache`]) and a fixed pool
//! of executor workers fed by a **bounded admission queue**:
//!
//! * [`Engine::submit`] is non-blocking: when the queue is full the query
//!   is rejected immediately ([`SubmitError::QueueFull`]) so callers get
//!   backpressure instead of unbounded latency;
//! * each admitted query runs **single-threaded** on one worker, so its
//!   embedding sequence — and therefore its [`EmbeddingChecksum`] — is
//!   byte-identical to a serial one-shot run of the same query;
//! * results stream back in batches over a small bounded channel; a slow
//!   client throttles only its own worker (the send blocks), and a
//!   *vanished* client (receiver dropped) aborts the query within one
//!   enumeration quantum;
//! * [`Engine::apply_delta`] swaps the named graph's `Arc` for the
//!   post-delta successor. In-flight queries keep the `Arc` they captured
//!   at submission — **snapshot isolation**: a query answers against the
//!   graph version that was current when it was admitted;
//! * every state transition updates a [`ServeTrace`] under one mutex, so
//!   [`Engine::stats`] snapshots always satisfy the accounting identities
//!   checked by `cfl-verify`'s `check_serve_trace`.
//!
//! # Counter semantics
//!
//! `submitted = admitted + rejected` at every instant. A submission
//! naming an unknown graph is **admitted and immediately failed** (it
//! enters the books as a query that errored before enumeration, matching
//! the `failed` counter's definition) — the caller still gets
//! [`SubmitError::UnknownGraph`] synchronously. A submission bounced by a
//! full queue or a shut-down engine counts as `rejected`.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cfl_graph::{DeltaError, Graph, GraphDelta, VertexId};
use cfl_trace::ServeTrace;

use crate::cache::PlanCache;
use crate::config::{Budget, CancelToken, MatchConfig};
use crate::result::{EmbeddingChecksum, MatchOutcome};
use crate::session::DataGraph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Sizing and default-budget knobs for an [`Engine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Executor workers (concurrent queries). Each worker runs one query
    /// at a time, single-threaded.
    pub workers: usize,
    /// Admission queue capacity; submissions beyond `workers + queue_depth`
    /// in flight are rejected with [`SubmitError::QueueFull`].
    pub queue_depth: usize,
    /// Embeddings per streamed batch.
    pub batch_size: usize,
    /// Embedding cap applied to queries that do not set their own.
    pub default_limit: Option<u64>,
    /// Execution deadline applied to queries that do not set their own.
    /// The clock starts when a worker picks the query up (it measures
    /// execution, not queue wait).
    pub default_deadline: Option<Duration>,
    /// Attach a shared [`PlanCache`] to each graph, so isomorphic repeat
    /// queries skip CPI construction and deltas restamp surviving plans.
    pub plan_cache: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            queue_depth: 64,
            batch_size: 64,
            default_limit: None,
            default_deadline: None,
            plan_cache: true,
        }
    }
}

/// One query as submitted to the engine.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Name of the target data graph (see [`Engine::add_graph`]).
    pub graph: String,
    /// The query graph.
    pub query: Graph,
    /// Strategy configuration (ordering, pruning, filters). Its budget is
    /// **replaced** by the engine: limit/deadline below merged with the
    /// engine defaults, plus the engine's cancellation token.
    pub config: MatchConfig,
    /// Per-query embedding cap; `None` falls back to the engine default.
    pub limit: Option<u64>,
    /// Per-query execution deadline; `None` falls back to the engine
    /// default.
    pub deadline: Option<Duration>,
    /// Count embeddings without materializing or streaming them (the
    /// final [`QueryDone`] still carries the count; the checksum covers
    /// nothing and stays at the FNV offset basis).
    pub count_only: bool,
}

impl QuerySpec {
    /// A spec with default strategy, no per-query budget overrides, and
    /// streaming enabled.
    pub fn new(graph: impl Into<String>, query: Graph) -> Self {
        QuerySpec {
            graph: graph.into(),
            query,
            config: MatchConfig::exhaustive(),
            limit: None,
            deadline: None,
            count_only: false,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity; retry later.
    QueueFull,
    /// The engine is shutting down; do not retry.
    ShuttingDown,
    /// No graph with this name is registered.
    UnknownGraph(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue full"),
            SubmitError::ShuttingDown => write!(f, "engine shutting down"),
            SubmitError::UnknownGraph(name) => write!(f, "unknown graph {name:?}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a delta application failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeDeltaError {
    /// No graph with this name is registered.
    UnknownGraph(String),
    /// The delta itself was invalid against the current graph version.
    Delta(DeltaError),
}

impl std::fmt::Display for ServeDeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeDeltaError::UnknownGraph(name) => write!(f, "unknown graph {name:?}"),
            ServeDeltaError::Delta(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeDeltaError {}

/// Outcome of a successful [`Engine::apply_delta`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaApplied {
    /// Epoch of the new graph version.
    pub epoch: u64,
    /// Cached plans the plan cache restamped to the new epoch.
    pub plans_refreshed: u64,
}

/// Terminal summary of one served query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryDone {
    /// Stable outcome tag (`"complete"`, `"limit"`, `"deadline"`,
    /// `"cancelled"`; see [`MatchOutcome::as_tag`]).
    pub outcome: MatchOutcome,
    /// Embeddings enumerated (streamed or counted).
    pub embeddings: u64,
    /// `true` iff the run stopped before exhausting the search.
    pub truncated: bool,
    /// [`EmbeddingChecksum`] digest over the emitted sequence.
    pub checksum: u64,
    /// Search-tree nodes explored.
    pub search_nodes: u64,
    /// Execution time on the worker (excludes queue wait).
    pub elapsed: Duration,
}

/// One event on a query's result stream: zero or more batches, then
/// exactly one terminal event ([`Done`](QueryEvent::Done) or
/// [`Failed`](QueryEvent::Failed)).
#[derive(Clone, Debug, PartialEq)]
pub enum QueryEvent {
    /// A batch of embeddings, in enumeration order.
    Batch(Vec<Vec<VertexId>>),
    /// The query finished; no further events follow.
    Done(QueryDone),
    /// The query errored before enumeration (e.g. a disconnected query
    /// graph) or panicked on its worker; no further events follow.
    Failed(String),
}

/// Client half of one admitted query: its id, its cancellation token, and
/// the event stream.
///
/// Dropping the handle drops the stream's receiver; the worker notices on
/// its next batch send and aborts the query (classified as `cancelled`).
pub struct QueryHandle {
    id: u64,
    cancel: CancelToken,
    events: Receiver<QueryEvent>,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle").field("id", &self.id).finish()
    }
}

impl QueryHandle {
    /// The engine-assigned query id (also usable with [`Engine::cancel`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Latches this query's cancellation token; the search stops within
    /// one enumeration quantum.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks for the next event; `None` once the terminal event has been
    /// consumed (the worker dropped its sender).
    pub fn recv(&self) -> Option<QueryEvent> {
        self.events.recv().ok()
    }

    /// Drains the stream to its terminal event, discarding batches.
    /// Returns `None` only if the engine died mid-query.
    pub fn wait(&self) -> Option<QueryEvent> {
        loop {
            match self.recv()? {
                QueryEvent::Batch(_) => {}
                terminal => return Some(terminal),
            }
        }
    }
}

/// One named graph version: the graph and its (shared) plan cache. A
/// delta replaces the `Arc<GraphState>` as a unit; the cache `Arc` is
/// carried over so restamped plans survive.
struct GraphState {
    graph: Arc<Graph>,
    cache: Option<Arc<PlanCache>>,
}

/// An admitted query traveling through the queue to a worker.
struct Job {
    id: u64,
    state: Arc<GraphState>,
    query: Graph,
    config: MatchConfig,
    count_only: bool,
    batch_size: usize,
    events: SyncSender<QueryEvent>,
    cancel: CancelToken,
}

struct Shared {
    graphs: Mutex<HashMap<String, Arc<GraphState>>>,
    registry: Mutex<HashMap<u64, CancelToken>>,
    counters: Mutex<ServeTrace>,
    next_id: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A long-lived query-serving engine. See the [serve module
/// docs](crate::serve) for the architecture and counter semantics.
pub struct Engine {
    shared: Arc<Shared>,
    config: EngineConfig,
    /// `None` only during shutdown: dropping the sender disconnects the
    /// queue, which ends every worker's receive loop.
    queue: Option<SyncSender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Engine {
    /// Starts `config.workers` executor threads over a fresh admission
    /// queue. Graphs are registered afterwards with
    /// [`add_graph`](Self::add_graph).
    pub fn new(config: EngineConfig) -> Self {
        let workers = config.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth);
        let shared = Arc::new(Shared {
            graphs: Mutex::new(HashMap::new()),
            registry: Mutex::new(HashMap::new()),
            counters: Mutex::new(ServeTrace::default()),
            next_id: AtomicU64::new(1),
        });
        // std's Receiver is not Sync, so workers take turns claiming
        // jobs through a mutex; the claim is O(1) and the guard is dropped
        // before the query runs.
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            let spawned = thread::Builder::new()
                .name(format!("cfl-serve-{i}"))
                .spawn(move || loop {
                    // A receive error means the queue disconnected:
                    // shutdown.
                    let Ok(job) = lock(&rx).recv() else { return };
                    run_job(&shared, job);
                });
            match spawned {
                Ok(h) => handles.push(h),
                // Thread exhaustion: run degraded with the workers that
                // did start (at least the submit path still works and
                // jobs queue up).
                Err(_) => break,
            }
        }
        Engine {
            shared,
            config,
            queue: Some(tx),
            workers: handles,
        }
    }

    /// Registers (or replaces) a named graph. Indexing statistics are
    /// built once here, so per-query [`DataGraph`] construction on the
    /// workers is cheap.
    pub fn add_graph(&self, name: impl Into<String>, graph: Graph) {
        let graph = Arc::new(graph);
        // Warm the memoized statistics tables before the graph is
        // visible to workers.
        drop(DataGraph::new(&graph));
        let cache = self
            .config
            .plan_cache
            .then(|| Arc::new(PlanCache::with_default_capacity()));
        let state = Arc::new(GraphState { graph, cache });
        lock(&self.shared.graphs).insert(name.into(), state);
    }

    /// Names of the registered graphs, sorted.
    pub fn graph_names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.shared.graphs).keys().cloned().collect();
        names.sort();
        names
    }

    /// The sizing configuration the engine was started with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Offers one query for admission. Non-blocking: a full queue rejects
    /// immediately. On success the query is queued and the returned
    /// [`QueryHandle`] streams its events.
    pub fn submit(&self, spec: QuerySpec) -> Result<QueryHandle, SubmitError> {
        // Counter updates happen in one lock acquisition per terminal
        // path — `submitted` together with its classification — so the
        // admission identity `submitted = admitted + rejected` holds at
        // every [`stats`](Self::stats) snapshot, not just at quiescence.
        let Some(state) = lock(&self.shared.graphs).get(&spec.graph).cloned() else {
            // Unknown graph: admitted and immediately failed (see the
            // module docs), so the `failed` counter owns this case.
            let mut t = lock(&self.shared.counters);
            t.submitted += 1;
            t.admitted += 1;
            t.failed += 1;
            return Err(SubmitError::UnknownGraph(spec.graph));
        };
        let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
        let cancel = CancelToken::new();
        let budget = Budget {
            max_embeddings: spec.limit.or(self.config.default_limit),
            time_limit: spec.deadline.or(self.config.default_deadline),
            cancel: Some(cancel.clone()),
        };
        let config = spec.config.with_budget(budget);
        let (tx, rx) = mpsc::sync_channel::<QueryEvent>(8);
        let job = Job {
            id,
            state,
            query: spec.query,
            config,
            count_only: spec.count_only,
            batch_size: self.config.batch_size.max(1),
            events: tx,
            cancel: cancel.clone(),
        };
        let Some(queue) = &self.queue else {
            let mut t = lock(&self.shared.counters);
            t.submitted += 1;
            t.rejected += 1;
            return Err(SubmitError::ShuttingDown);
        };
        // Register the token before the job becomes claimable so a
        // cancel-by-id arriving right after submit returns always finds it.
        lock(&self.shared.registry).insert(id, cancel.clone());
        // The counters lock is held *across* the non-blocking enqueue: a
        // worker claiming the job decrements `queued` under this same
        // lock, so it cannot observe (or underflow past) the increment
        // below before it lands.
        let mut t = lock(&self.shared.counters);
        match queue.try_send(job) {
            Ok(()) => {
                t.submitted += 1;
                t.admitted += 1;
                t.queued += 1;
                Ok(QueryHandle {
                    id,
                    cancel,
                    events: rx,
                })
            }
            Err(e) => {
                t.submitted += 1;
                t.rejected += 1;
                drop(t);
                lock(&self.shared.registry).remove(&id);
                Err(match e {
                    TrySendError::Full(_) => SubmitError::QueueFull,
                    TrySendError::Disconnected(_) => SubmitError::ShuttingDown,
                })
            }
        }
    }

    /// Latches the cancellation token of query `id`. Returns whether the
    /// query was live (queued or running); cancelling a finished or
    /// unknown id is a no-op returning `false`.
    pub fn cancel(&self, id: u64) -> bool {
        match lock(&self.shared.registry).get(&id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Applies `delta` to the named graph, swapping in the successor
    /// version and restamping surviving cached plans. In-flight queries
    /// keep the version they captured at admission (snapshot isolation);
    /// queries admitted after this call see the successor.
    pub fn apply_delta(
        &self,
        name: &str,
        delta: &GraphDelta,
    ) -> Result<DeltaApplied, ServeDeltaError> {
        // The registry lock is held across the application so concurrent
        // deltas to one graph serialize instead of both applying to the
        // same predecessor and losing one batch of edits.
        let mut graphs = lock(&self.shared.graphs);
        let Some(state) = graphs.get(name).cloned() else {
            return Err(ServeDeltaError::UnknownGraph(name.to_string()));
        };
        let applied = state
            .graph
            .apply_delta(delta)
            .map_err(ServeDeltaError::Delta)?;
        let refreshed = state
            .cache
            .as_ref()
            .map_or(0, |cache| cache.refresh(&state.graph, &applied));
        let epoch = applied.graph.epoch();
        let next = Arc::new(applied.graph);
        drop(DataGraph::new(&next)); // warm stats for the successor
        graphs.insert(
            name.to_string(),
            Arc::new(GraphState {
                graph: next,
                cache: state.cache.clone(),
            }),
        );
        drop(graphs);
        let mut t = lock(&self.shared.counters);
        t.deltas_applied += 1;
        t.plans_refreshed += refreshed as u64;
        Ok(DeltaApplied {
            epoch,
            plans_refreshed: refreshed as u64,
        })
    }

    /// Snapshot of the serving counters. Taken under the transition lock,
    /// so the accounting identities hold exactly at every snapshot. The
    /// plan-cache counters are summed over the registered graphs, each
    /// cache read under its own mutex, so the cache identities hold too.
    pub fn stats(&self) -> ServeTrace {
        let mut t = lock(&self.shared.counters).clone();
        let caches: Vec<Arc<PlanCache>> = lock(&self.shared.graphs)
            .values()
            .filter_map(|state| state.cache.clone())
            .collect();
        for cache in caches {
            t.cache.accumulate(&cache.snapshot().into());
        }
        t
    }

    /// Stops admission, drains the queue, and joins the workers. Queued
    /// queries still run to completion; new submissions are rejected.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.queue = None; // disconnects the admission queue
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Executes one admitted query on the calling worker thread.
fn run_job(shared: &Shared, job: Job) {
    {
        let mut t = lock(&shared.counters);
        t.queued -= 1;
        t.active += 1;
    }
    let session = match &job.state.cache {
        Some(cache) => DataGraph::new(&job.state.graph).with_plan_cache(Arc::clone(cache)),
        None => DataGraph::new(&job.state.graph),
    };
    let start = Instant::now();
    let mut checksum = EmbeddingChecksum::new();
    let mut batch: Vec<Vec<VertexId>> = Vec::new();
    let mut abandoned = false;
    let mut batches_sent: u64 = 0;
    let mut streamed: u64 = 0;
    // A panicking query must not take its worker down with it: the
    // worker keeps serving, and the query is booked as failed.
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        if job.count_only {
            session.count_embeddings(&job.query, &job.config)
        } else {
            session.find_embeddings(&job.query, &job.config, |mapping| {
                checksum.update(mapping);
                batch.push(mapping.to_vec());
                if batch.len() < job.batch_size {
                    return true;
                }
                let full = std::mem::take(&mut batch);
                let n = full.len() as u64;
                match job.events.send(QueryEvent::Batch(full)) {
                    Ok(()) => {
                        batches_sent += 1;
                        streamed += n;
                        #[cfg(test)]
                        tests::panic_if_marked(&job.query);
                        true
                    }
                    Err(_) => {
                        // Client vanished: stop now and make sure the
                        // enumerator agrees if it polls before unwinding.
                        abandoned = true;
                        job.cancel.cancel();
                        false
                    }
                }
            })
        }
    }));
    let elapsed = start.elapsed();
    match result {
        Ok(Ok(report)) => {
            // Flush the tail batch before the terminal event.
            if !abandoned && !batch.is_empty() {
                let n = batch.len() as u64;
                if job.events.send(QueryEvent::Batch(batch)).is_ok() {
                    batches_sent += 1;
                    streamed += n;
                } else {
                    abandoned = true;
                }
            }
            let outcome = if abandoned {
                MatchOutcome::Cancelled
            } else {
                report.outcome
            };
            let done = QueryDone {
                outcome,
                embeddings: report.embeddings,
                truncated: !outcome.is_complete(),
                checksum: checksum.digest(),
                search_nodes: report.stats.search_nodes,
                elapsed,
            };
            // Book the terminal state *before* delivering the terminal
            // event: a client that reads `Engine::stats` right after its
            // `Done` frame must already see this query counted.
            lock(&shared.registry).remove(&job.id);
            {
                let mut t = lock(&shared.counters);
                t.active -= 1;
                t.batches += batches_sent;
                t.embeddings_streamed += streamed;
                match outcome {
                    MatchOutcome::Complete => t.completed += 1,
                    MatchOutcome::Cancelled => t.cancelled += 1,
                    MatchOutcome::TimedOut => t.deadline_expired += 1,
                    MatchOutcome::LimitReached => t.limit_reached += 1,
                }
            }
            let _ = job.events.send(QueryEvent::Done(done));
        }
        Ok(Err(e)) => book_failed(shared, &job, batches_sent, streamed, format!("{e}")),
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string payload");
            let message = format!("query panicked: {what}");
            book_failed(shared, &job, batches_sent, streamed, message);
        }
    }
}

/// Books a query that errored or panicked as `failed`, then delivers its
/// terminal [`QueryEvent::Failed`].
fn book_failed(shared: &Shared, job: &Job, batches_sent: u64, streamed: u64, message: String) {
    lock(&shared.registry).remove(&job.id);
    {
        let mut t = lock(&shared.counters);
        t.active -= 1;
        t.batches += batches_sent;
        t.embeddings_streamed += streamed;
        t.failed += 1;
    }
    let _ = job.events.send(QueryEvent::Failed(message));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfl_graph::graph_from_edges;

    /// Query vertices carrying this label make the worker panic right
    /// after it streams a batch (see `run_job`).
    const PANIC_LABEL: u32 = 9;

    pub(super) fn panic_if_marked(query: &Graph) {
        if query.vertices().any(|u| query.label(u).0 == PANIC_LABEL) {
            panic!("injected panic");
        }
    }

    /// A 4-cycle of `PANIC_LABEL` vertices beside a labeled triangle.
    fn data_graph() -> Graph {
        graph_from_edges(
            &[PANIC_LABEL, PANIC_LABEL, PANIC_LABEL, PANIC_LABEL, 0, 1, 2],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)],
        )
        .unwrap()
    }

    fn drain(handle: &QueryHandle) -> QueryEvent {
        loop {
            match handle.recv().expect("stream ended without terminal event") {
                QueryEvent::Batch(_) => {}
                terminal => return terminal,
            }
        }
    }

    #[test]
    fn panicking_query_fails_and_keeps_its_worker() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            batch_size: 1,
            ..EngineConfig::default()
        });
        engine.add_graph("default", data_graph());
        let edge = graph_from_edges(&[PANIC_LABEL, PANIC_LABEL], &[(0, 1)]).unwrap();
        let handle = engine.submit(QuerySpec::new("default", edge)).unwrap();
        let QueryEvent::Failed(message) = drain(&handle) else {
            panic!("expected a failed query");
        };
        assert!(message.contains("injected panic"), "{message}");
        let t = engine.stats();
        assert_eq!((t.failed, t.active, t.batches), (1, 0, 1), "{t:?}");
        assert!(cfl_verify::check_serve_trace(&t).is_clean());

        // The one worker survived and serves the next query exactly like
        // a one-shot run.
        let triangle = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let handle = engine
            .submit(QuerySpec::new("default", triangle.clone()))
            .unwrap();
        let QueryEvent::Done(done) = drain(&handle) else {
            panic!("expected done after the panic");
        };
        let g = data_graph();
        let mut want = EmbeddingChecksum::new();
        let report = DataGraph::new(&g)
            .find_embeddings(&triangle, &MatchConfig::exhaustive(), |m| {
                want.update(m);
                true
            })
            .unwrap();
        assert_eq!(done.outcome, MatchOutcome::Complete);
        assert_eq!(
            (done.embeddings, done.checksum),
            (report.embeddings, want.digest())
        );
        assert_eq!(engine.workers.len(), 1);
        assert!(engine.workers.iter().all(|h| !h.is_finished()));
        let t = engine.stats();
        assert_eq!((t.completed, t.failed), (1, 1), "{t:?}");
        assert!(cfl_verify::check_serve_trace(&t).is_clean());
    }
}
