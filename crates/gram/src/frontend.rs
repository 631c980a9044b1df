//! The TCP serving layer: a real network boundary in front of
//! [`GramServer`].
//!
//! The paper's Gatekeeper sat behind a listening socket serving many
//! concurrent wide-area clients. This front-end reproduces that shape
//! with a deliberately simple, allocation-disciplined design:
//!
//! * **Fixed worker pool.** `workers` threads are spawned at bind time
//!   and live until [`Frontend::stop`]. An acceptor thread enqueues
//!   connections; each worker pops one and serves it until the peer
//!   closes, so the pool size bounds concurrent service exactly and
//!   excess connections queue. Throughput scales with workers because
//!   wide-area clients spend most of a request's lifetime *not* talking
//!   (network latency, client think time): one worker serializes every
//!   client's idle gaps, W workers overlap them.
//! * **Bounded admission.** The accept queue is two bounded lanes —
//!   interactive (fast) and batch (overflow). A connection is admitted
//!   to the interactive lane while it has room, spills to the batch lane
//!   under pressure, and is **shed** with a fast `BUSY` answer when both
//!   lanes are full, so a hostile or overloaded client population can
//!   never grow the server's queue without bound. Every admitted
//!   connection is stamped with a [`RequestContext`] whose deadline is
//!   its lane's default budget; entries whose deadline passes while they
//!   wait are answered `BUSY` without service, and [`Frontend::stop`]
//!   drains still-queued entries with a shutdown answer instead of
//!   silently dropping them.
//! * **Pipelined framing.** Frames are `\n\n`-delimited (PEM armor and
//!   GRAM header lines are never blank). A per-connection
//!   [`FrameAssembler`] accepts whatever fragments the socket delivers
//!   and yields complete frames — several per read, or one frame spread
//!   over many reads — decoded against the connection buffer in place.
//! * **Request lifecycle.** Each frame is parsed once, at assembly
//!   time, into its PEM credential text, its request and its admission
//!   headers; a malformed frame (including a malformed `class:` or
//!   `budget-micros:` header) is refused with its typed error before any
//!   authentication. A parsed frame gets a [`RequestContext`]: admission
//!   class from its `class:` header (the connection's lane otherwise),
//!   a deadline from its `budget-micros:` header (the class default
//!   budget otherwise), the measured queue wait (first frame only), and
//!   a telemetry-allocated trace id that the decision trace and the
//!   audit record reuse — one id joins the front-end, engine, callout
//!   and audit views of a request.
//! * **Per-worker reusable buffers.** The read buffer, the assembler's
//!   frame buffer and the response `String` are allocated once per
//!   worker and reused for every request of every connection: the warm
//!   path is bytes-in → decision → bytes-out with no per-request heap
//!   traffic in the serving layer itself.
//! * **One write per read.** Every answer produced from one `read` —
//!   service answers, typed decode-error answers, and the closing
//!   `BUSY` or `IDLE_TIMEOUT` — is appended to the response buffer, and
//!   the buffer is written with a single `write_all` before the next
//!   `read` and before any close. A pipelined window of eight frames
//!   costs one `write` syscall and one loopback segment, not eight, and
//!   a connection closed for its error budget or its deadline still
//!   gets every earlier answer, in order, ahead of the close.
//! * **Connection lifecycle.** A serving connection can end five ways,
//!   each observable: the peer closes (normal), an I/O error, the
//!   connection's **admission deadline** passes (answered `BUSY`,
//!   counted deadline-expired — checked on idle wakeups *and* after
//!   every read, so neither a silent client nor a byte-trickling
//!   slowloris can pin a worker), the **idle timeout** fires after
//!   `idle_timeout` with no bytes at all (answered `IDLE_TIMEOUT`), or
//!   the per-connection **error budget** is exhausted by refused frames
//!   (each answered with a typed error frame in-stream; the budget caps
//!   how long a garbage-spewing peer is tolerated).
//! * **Real time.** Service timing uses a [`TimeSource`] —
//!   [`WallClock`] by default — so the front-end measures wall time
//!   while the simulation's [`SimClock`](gridauthz_clock::SimClock)
//!   remains the authority everywhere behind the decision boundary.
//!
//! Telemetry: accepted/active connection gauges, per-lane queue-depth
//! gauges, worker-pool occupancy gauges (`WorkersTotal`,
//! `OldestConnectionAgeMicros` — saturated active connections plus a
//! growing oldest-age is the signature of pinning), per-frame decode and
//! end-to-end service histograms ([`Stage::FrameDecode`],
//! [`Stage::Service`]), admission outcomes under [`Stage::Admission`]
//! (shed / deadline-expired / shutdown / idle-timeout / error-budget),
//! and classified decode-error labels.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use gridauthz_clock::{SimDuration, SimTime, TimeSource, WallClock};
use gridauthz_core::{AdmissionClass, RequestContext, ShedReason};
use gridauthz_telemetry::{labels, Gauge, Stage, TelemetryRegistry};

use crate::server::{queue_wait_nanos, GramServer};
use crate::wire::{
    answer_error, answer_refusal, decode_error_label, encode_busy, FrameAssembler, WireDecodeError,
    MAX_FRAME_BYTES,
};

/// Tunables for [`Frontend::bind`].
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Per-frame size limit handed to each connection's assembler.
    pub max_frame_bytes: usize,
    /// Socket read timeout — the granularity at which an idle worker
    /// notices a stop request, an expired connection deadline, or an
    /// idle-read timeout.
    pub read_timeout: Duration,
    /// Depth bound of the interactive admission lane.
    pub queue_bound_interactive: usize,
    /// Depth bound of the batch (overflow) admission lane.
    pub queue_bound_batch: usize,
    /// The retry hint written in the `BUSY` answer when a connection is
    /// shed because both lanes are full.
    pub shed_retry_after: SimDuration,
    /// Connection budget stamped on interactive-lane admissions (the
    /// connection's admission deadline; a slow client is cut off with a
    /// `BUSY` answer when it passes).
    pub budget_interactive: SimDuration,
    /// Connection budget stamped on batch-lane admissions.
    pub budget_batch: SimDuration,
    /// How long a connection may sit silent — no bytes at all — before
    /// it is closed with an `IDLE_TIMEOUT` error to free its worker.
    /// Measured on the front-end clock between successful reads.
    pub idle_timeout: SimDuration,
    /// Refused frames (malformed, oversized, duplicate-header) a
    /// connection may accumulate before it is closed. Each refused frame
    /// is answered with a typed `GRAM/1 ERROR` frame; exhausting the
    /// budget closes the connection and counts once under
    /// [`Stage::Admission`] / `error-budget`.
    pub error_budget: u32,
    /// Seed of the ±25% jitter applied to every `retry-after-micros`
    /// hint in a `BUSY` answer. An un-jittered hint synchronizes every
    /// shed client into retrying at the same instant — the retry storm
    /// re-sheds them all and the herd never thins; jitter spreads the
    /// retries across half the base interval. Seeded so simulations
    /// replay identically.
    pub retry_jitter_seed: u64,
}

impl FrontendConfig {
    /// The connection budget for `class`'s admission lane.
    #[must_use]
    pub fn lane_budget(&self, class: AdmissionClass) -> SimDuration {
        match class {
            AdmissionClass::Interactive => self.budget_interactive,
            AdmissionClass::Batch => self.budget_batch,
        }
    }
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            workers: 4,
            max_frame_bytes: MAX_FRAME_BYTES,
            read_timeout: Duration::from_millis(20),
            queue_bound_interactive: 64,
            queue_bound_batch: 64,
            shed_retry_after: SimDuration::from_millis(10),
            budget_interactive: AdmissionClass::Interactive.default_budget(),
            budget_batch: AdmissionClass::Batch.default_budget(),
            idle_timeout: SimDuration::from_secs(10),
            error_budget: 4,
            retry_jitter_seed: 0x5EED_5EED_5EED_5EED,
        }
    }
}

/// Per-worker service counters, returned by [`Frontend::stop`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Connections this worker served to completion.
    pub connections: u64,
    /// Frames this worker answered (including error answers).
    pub frames: u64,
    /// Response buffers this worker flushed: one `write_all` carrying
    /// every answer produced from one read. `frames / writes` is the
    /// mean number of answers coalesced into one write.
    pub writes: u64,
    /// Connections this worker refused with a fast `BUSY` answer
    /// because their deadline expired while they waited in the
    /// admission queue.
    pub refused: u64,
}

/// One admitted connection waiting for a worker: the stream, the
/// lifecycle context stamped at accept time (lane class, admission
/// deadline on the front-end clock), and the accept instant the queue
/// wait is measured from.
struct QueuedConnection {
    stream: TcpStream,
    ctx: RequestContext,
    enqueued_at: SimTime,
}

/// The bounded two-lane admission queue. Interactive is the fast lane;
/// batch is the overflow lane that fills only under pressure and sheds
/// first. Workers always drain interactive before batch.
#[derive(Default)]
struct AdmissionQueue {
    interactive: VecDeque<QueuedConnection>,
    batch: VecDeque<QueuedConnection>,
}

impl AdmissionQueue {
    fn pop(&mut self) -> Option<QueuedConnection> {
        self.interactive.pop_front().or_else(|| self.batch.pop_front())
    }
}

/// State shared by the acceptor, the workers and the handle.
struct Shared {
    server: Arc<GramServer>,
    clock: Arc<dyn TimeSource>,
    config: FrontendConfig,
    /// Connections accepted but not yet claimed by a worker.
    queue: Mutex<AdmissionQueue>,
    /// Signals workers that the queue is non-empty (or stopping).
    available: Condvar,
    stop: AtomicBool,
    accepted: AtomicU64,
    active: AtomicU64,
    /// Connections refused at accept because both lanes were full.
    shed: AtomicU64,
    /// Monotone counter driving the retry-after jitter substream: each
    /// `BUSY` answer draws from the next substream of the configured
    /// seed, so concurrent refusals get independent (but replayable)
    /// hints.
    retry_sequence: AtomicU64,
    /// Per-worker serve-start stamp: micros-plus-one on the front-end
    /// clock, 0 while the worker is idle. The non-zero minimum across
    /// workers is the oldest connection currently being served — the
    /// [`Gauge::OldestConnectionAgeMicros`] source, which together with
    /// `ConnectionsActive == WorkersTotal` makes worker pinning
    /// observable from the outside.
    serving_since: Box<[AtomicU64]>,
}

/// `base` scaled to 75–125% of itself, deterministically from
/// `(seed, sequence)`. The substrate of the front-end's retry-after
/// jitter: each refusal draws one `sequence` value, so two refusals in
/// the same instant still spread apart, and the same seed replays the
/// same hints.
pub fn jittered_retry(seed: u64, sequence: u64, base: SimDuration) -> SimDuration {
    let mut rng = gridauthz_journal::CrashRng::new(seed).substream(sequence);
    base.mul_percent(75 + rng.below(51))
}

impl Shared {
    fn new(
        server: Arc<GramServer>,
        clock: Arc<dyn TimeSource>,
        config: FrontendConfig,
        workers: usize,
    ) -> Shared {
        Shared {
            server,
            clock,
            config,
            queue: Mutex::new(AdmissionQueue::default()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            active: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            retry_sequence: AtomicU64::new(0),
            serving_since: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn telemetry(&self) -> &TelemetryRegistry {
        self.server.telemetry()
    }

    /// The next jittered retry hint (±25% of `base`).
    fn retry_hint(&self, base: SimDuration) -> SimDuration {
        let sequence = self.retry_sequence.fetch_add(1, Ordering::Relaxed);
        jittered_retry(self.config.retry_jitter_seed, sequence, base)
    }

    fn publish_gauges(&self) {
        self.telemetry()
            .set_gauge(Gauge::ConnectionsAccepted, self.accepted.load(Ordering::Relaxed));
        self.telemetry().set_gauge(Gauge::ConnectionsActive, self.active.load(Ordering::Relaxed));
    }

    fn note_serve_start(&self, worker: usize) {
        let stamp = self.clock.now().as_micros().saturating_add(1);
        self.serving_since[worker].store(stamp, Ordering::Relaxed);
        self.publish_connection_age();
    }

    fn note_serve_end(&self, worker: usize) {
        self.serving_since[worker].store(0, Ordering::Relaxed);
        self.publish_connection_age();
    }

    /// Publishes the age of the longest-lived connection currently being
    /// served (0 when every worker is idle). Refreshed on serve
    /// start/end and on idle poll wakeups, so a stuck connection keeps
    /// the gauge growing even while nothing else happens.
    fn publish_connection_age(&self) {
        let oldest = self
            .serving_since
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&stamp| stamp != 0)
            .min();
        let age = oldest.map_or(0, |stamp| {
            self.clock.now().as_micros().saturating_sub(stamp.saturating_sub(1))
        });
        self.telemetry().set_gauge(Gauge::OldestConnectionAgeMicros, age);
    }

    /// Publishes the lane depths; called with the queue lock held so the
    /// gauges can never read above the configured bounds.
    fn publish_queue_gauges(&self, queue: &AdmissionQueue) {
        self.telemetry().set_gauge(Gauge::QueueDepthInteractive, queue.interactive.len() as u64);
        self.telemetry().set_gauge(Gauge::QueueDepthBatch, queue.batch.len() as u64);
    }
}

/// A bound, serving front-end. Dropping the handle without calling
/// [`Frontend::stop`] leaves the threads serving until process exit.
pub struct Frontend {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<WorkerStats>>,
}

impl Frontend {
    /// Binds `addr` and starts the acceptor plus `config.workers` worker
    /// threads serving `server`, timing service with a fresh
    /// [`WallClock`].
    ///
    /// # Errors
    ///
    /// Socket errors from bind.
    pub fn bind(
        server: Arc<GramServer>,
        addr: impl ToSocketAddrs,
        config: FrontendConfig,
    ) -> io::Result<Frontend> {
        Frontend::bind_with_clock(server, addr, config, Arc::new(WallClock::new()))
    }

    /// [`Frontend::bind`] with an explicit time source — tests pass a
    /// [`SimClock`](gridauthz_clock::SimClock) for deterministic spans.
    ///
    /// # Errors
    ///
    /// Socket errors from bind.
    pub fn bind_with_clock(
        server: Arc<GramServer>,
        addr: impl ToSocketAddrs,
        config: FrontendConfig,
        clock: Arc<dyn TimeSource>,
    ) -> io::Result<Frontend> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared::new(server, clock, config, worker_count));
        shared.telemetry().set_gauge(Gauge::WorkersTotal, worker_count as u64);
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let workers = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, index))
            })
            .collect();
        Ok(Frontend { addr, shared, acceptor: Some(acceptor), workers })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted since bind.
    #[must_use]
    pub fn connections_accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Connections refused at accept time because both admission lanes
    /// were at their depth bounds.
    #[must_use]
    pub fn connections_shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Stops accepting, drains the workers and joins every thread.
    /// Connections still queued when the workers exit are answered with
    /// a shutdown `BUSY` frame (and counted under
    /// [`Stage::Admission`] / shutdown) rather than silently dropped.
    /// Returns the per-worker service counters.
    pub fn stop(mut self) -> Vec<WorkerStats> {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // A worker holds the queue lock from its stop check until its
        // wait releases it. Taking the lock here means every worker has
        // either seen the flag or is already waiting, so none misses the
        // wakeup and leaves the join below hanging.
        drop(self.shared.queue.lock().unwrap_or_else(|e| e.into_inner()));
        self.shared.available.notify_all();
        let stats: Vec<WorkerStats> =
            self.workers.drain(..).map(|worker| worker.join().unwrap_or_default()).collect();
        // Shutdown drain: everything the workers left behind gets a
        // well-formed answer before its socket closes.
        let drained = {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            let mut drained = Vec::new();
            while let Some(entry) = queue.pop() {
                drained.push(entry);
            }
            self.shared.publish_queue_gauges(&queue);
            drained
        };
        for entry in drained {
            answer_unserved(&self.shared, entry.stream, ShedReason::Shutdown, &entry.ctx);
        }
        self.shared.publish_gauges();
        stats
    }
}

/// Answers a connection that will never be served: one `BUSY` frame
/// carrying a retry hint, then close. The refusal is
/// recorded under [`Stage::Admission`] with the shed reason's label.
fn answer_unserved(
    shared: &Shared,
    mut stream: TcpStream,
    reason: ShedReason,
    ctx: &RequestContext,
) {
    let label = match reason {
        ShedReason::QueueFull => labels::SHED,
        ShedReason::DeadlineExpired => labels::EXPIRED,
        ShedReason::Shutdown => labels::SHUTDOWN,
    };
    shared.telemetry().record_timed(Stage::Admission, label, queue_wait_nanos(ctx));
    let retry_after = shared.retry_hint(match reason {
        ShedReason::QueueFull => shared.config.shed_retry_after,
        // The useful hint after an expiry or a shutdown is "come back
        // with a fresh budget", not "poll immediately".
        ShedReason::DeadlineExpired | ShedReason::Shutdown => {
            shared.config.lane_budget(ctx.class())
        }
    });
    let _ = stream.set_nodelay(true);
    let mut answer = String::new();
    encode_busy(&mut answer, retry_after.as_micros());
    answer.push('\n');
    let _ = stream.write_all(answer.as_bytes());
    // Consume whatever request bytes the peer already sent: closing a
    // socket with unread data turns the close into a reset that can
    // destroy the answer before the client reads it.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
    let _ = stream.read(&mut [0u8; 512]);
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                shared.publish_gauges();
                let now = shared.clock.now();
                let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                // Lane assignment under pressure: interactive while the
                // fast lane has room, batch as overflow, shed when both
                // are at their bounds.
                let class = if queue.interactive.len() < shared.config.queue_bound_interactive {
                    Some(AdmissionClass::Interactive)
                } else if queue.batch.len() < shared.config.queue_bound_batch {
                    Some(AdmissionClass::Batch)
                } else {
                    None
                };
                match class {
                    Some(class) => {
                        let ctx = RequestContext::with_budget(
                            Arc::clone(&shared.clock),
                            class,
                            shared.config.lane_budget(class),
                        );
                        let lane = match class {
                            AdmissionClass::Interactive => &mut queue.interactive,
                            AdmissionClass::Batch => &mut queue.batch,
                        };
                        lane.push_back(QueuedConnection { stream, ctx, enqueued_at: now });
                        shared.publish_queue_gauges(&queue);
                        drop(queue);
                        shared.available.notify_one();
                    }
                    None => {
                        drop(queue);
                        shared.shed.fetch_add(1, Ordering::Relaxed);
                        let ctx = RequestContext::with_budget(
                            Arc::clone(&shared.clock),
                            AdmissionClass::Interactive,
                            SimDuration::ZERO,
                        );
                        answer_unserved(shared, stream, ShedReason::QueueFull, &ctx);
                    }
                }
            }
            Err(_) => {
                // Transient accept failure (e.g. aborted handshake):
                // keep listening.
            }
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) -> WorkerStats {
    let mut stats = WorkerStats::default();
    // The worker's reusable buffers: one read scratch, one frame
    // assembler, one response buffer — allocated here, reused for every
    // request of every connection this worker ever serves.
    let mut read_buf = vec![0u8; 8 * 1024];
    let mut assembler = FrameAssembler::new(shared.config.max_frame_bytes);
    let mut response = String::with_capacity(1024);
    loop {
        let mut entry = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return stats;
                }
                if let Some(entry) = queue.pop() {
                    shared.publish_queue_gauges(&queue);
                    break entry;
                }
                queue = shared.available.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        let wait = shared.clock.now().saturating_since(entry.enqueued_at);
        entry.ctx.note_queue_wait(wait);
        if entry.ctx.expired() {
            // Expired while queued: the client stopped caring before a
            // worker got here. A fast BUSY costs microseconds; decoding
            // and authorizing the doomed request would cost the budget
            // of a live one.
            answer_unserved(shared, entry.stream, ShedReason::DeadlineExpired, &entry.ctx);
            stats.refused += 1;
            continue;
        }
        shared.active.fetch_add(1, Ordering::Relaxed);
        shared.publish_gauges();
        shared.note_serve_start(index);
        serve_connection(shared, entry, &mut read_buf, &mut assembler, &mut response, &mut stats);
        stats.connections += 1;
        shared.note_serve_end(index);
        shared.active.fetch_sub(1, Ordering::Relaxed);
        shared.publish_gauges();
    }
}

/// Serves one connection until the peer closes, errors, goes silent past
/// the idle timeout, exhausts its error budget, or the connection's
/// admission deadline passes, counting answered frames and flushed
/// writes into `stats`.
///
/// The deadline and idle checks both live on the `WouldBlock`/`TimedOut`
/// wakeup path *and* (for the deadline) after every successful read:
/// a completely silent client is cut off at the idle timeout, and a
/// slowloris trickling bytes fast enough to dodge the idle timeout is
/// still cut off when the connection budget runs out. Either way the
/// worker returns to the pool — N misbehaving clients can no longer pin
/// all N workers forever.
fn serve_connection(
    shared: &Shared,
    entry: QueuedConnection,
    read_buf: &mut [u8],
    assembler: &mut FrameAssembler,
    response: &mut String,
    stats: &mut WorkerStats,
) {
    let QueuedConnection { mut stream, ctx, .. } = entry;
    // The poll interval is the context's remaining budget clamped to the
    // stop-poll granularity — the same deadline computation every other
    // layer reads through the context, not a third ad-hoc timeout.
    let poll = ctx
        .socket_timeout()
        .map_or(shared.config.read_timeout, |t| t.min(shared.config.read_timeout));
    let _ = stream.set_read_timeout(Some(poll.max(Duration::from_micros(1))));
    let _ = stream.set_nodelay(true);
    // The admission wait belongs to the connection's first request; the
    // frames pipelined behind it did not stand in the accept queue.
    let mut queue_wait = ctx.queue_wait();
    let mut errors = 0u32;
    let mut last_activity = shared.clock.now();
    loop {
        match stream.read(read_buf) {
            Ok(0) => {
                // Peer closed. Bytes without a terminator mean the frame
                // never completed.
                if assembler.residue() > 0 {
                    shared
                        .telemetry()
                        .record(Stage::FrameDecode, decode_error_label(&WireDecodeError::Partial));
                }
                break;
            }
            Ok(n) => {
                last_activity = shared.clock.now();
                assembler.push(&read_buf[..n]);
                if !drain_frames(
                    shared,
                    &ctx,
                    &mut queue_wait,
                    &mut stream,
                    assembler,
                    response,
                    stats,
                    &mut errors,
                ) {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                // This worker is awake anyway: let the pinning gauge
                // grow while the connection sits here.
                shared.publish_connection_age();
                // The documented contract: close when the connection's
                // admission deadline passes. (This check missing was the
                // worker-pinning bug — N silent clients deadlocked all N
                // workers.)
                if ctx.expired() {
                    expire_connection(shared, &ctx, response);
                    flush(&mut stream, response, stats);
                    break;
                }
                if shared.clock.now().saturating_since(last_activity) >= shared.config.idle_timeout
                {
                    shared.telemetry().record(Stage::Admission, labels::IDLE_TIMEOUT);
                    push_error_frame(
                        response,
                        "IDLE_TIMEOUT",
                        "connection idle past the front-end idle timeout",
                    );
                    flush(&mut stream, response, stats);
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // The assembler is reused by the next connection; anything left
    // belongs to the finished one.
    assembler.reset();
}

/// Cuts off a connection whose admission deadline passed mid-service:
/// appends one `BUSY` frame with a fresh-budget retry hint, counted
/// under [`Stage::Admission`] / deadline-expired; the caller flushes it
/// behind any answers already buffered, then closes.
fn expire_connection(shared: &Shared, ctx: &RequestContext, response: &mut String) {
    shared.telemetry().record(Stage::Admission, labels::EXPIRED);
    let retry_after = shared.retry_hint(shared.config.lane_budget(ctx.class()));
    encode_busy(response, retry_after.as_micros());
    response.push('\n');
}

/// Appends one `ERROR` frame to the response buffer. A refused value
/// leaves nothing partial behind the answers already buffered — only
/// the static fallback frame.
fn push_error_frame(response: &mut String, code: &str, message: &str) {
    answer_error(response, code, message);
    response.push('\n');
}

/// Writes every answer buffered since the last flush with one
/// `write_all` and empties the buffer. Returns `false` when the write
/// failed (the connection must close).
fn flush<W: Write>(out: &mut W, response: &mut String, stats: &mut WorkerStats) -> bool {
    if response.is_empty() {
        return true;
    }
    stats.writes += 1;
    let written = out.write_all(response.as_bytes()).is_ok();
    response.clear();
    written
}

/// Answers every complete frame currently buffered, then writes all of
/// the answers at once. Returns `false` when the connection must close
/// (write failure, its error budget is exhausted, or its admission
/// deadline has passed).
///
/// Each frame is parsed once; a parsed frame gets its own
/// [`RequestContext`] and is served. Refused frames — malformed,
/// oversized, duplicate-header, or carrying malformed admission
/// headers — are answered in-stream with a typed error frame, without
/// authentication, and the connection keeps being served: the
/// assembler's error contract guarantees the offending bytes were
/// consumed, so the stream position is trustworthy. Each refusal spends
/// one unit of the connection's error budget; exhausting it closes the
/// connection (a peer producing nothing but garbage does not get to hold
/// a worker).
///
/// The connection deadline is checked here, after every read, because a
/// trickling (slowloris) client never reaches the idle path. Whatever
/// closes the connection, its closing answer rides in the same write as
/// the answers before it.
#[allow(clippy::too_many_arguments)]
fn drain_frames<W: Write>(
    shared: &Shared,
    conn: &RequestContext,
    queue_wait: &mut SimDuration,
    out: &mut W,
    assembler: &mut FrameAssembler,
    response: &mut String,
    stats: &mut WorkerStats,
    errors: &mut u32,
) -> bool {
    let mut open = loop {
        let outcome = assembler.next_frame(|text| {
            // The admission wait belongs to the connection's first frame.
            let wait = std::mem::take(queue_wait);
            let start = shared.clock.now();
            // A frame the protocol layer refused (unparseable request,
            // header injection, malformed admission header, or a request
            // the service rejects as malformed) spends error budget even
            // though it was valid UTF-8 and well-delimited — otherwise a
            // garbage-spewing client could hold its worker for the whole
            // connection budget. Service-level denials (authentication,
            // authorization, unknown job) are honest protocol use and
            // spend nothing.
            let (label, refused) = match shared.server.parse_frame(text) {
                Ok(frame) => {
                    let class = frame.class.unwrap_or(conn.class());
                    let budget = frame.budget.unwrap_or_else(|| class.default_budget());
                    let mut ctx =
                        RequestContext::with_budget(Arc::clone(&shared.clock), class, budget);
                    ctx.note_queue_wait(wait);
                    let ctx = ctx.with_trace_id(shared.telemetry().allocate_trace_id());
                    let label = shared.server.serve_frame(&ctx, &frame, response);
                    (label, label == labels::BAD_REQUEST)
                }
                Err(e) => (answer_refusal(response, &e), true),
            };
            let micros = shared.clock.now().as_micros().saturating_sub(start.as_micros());
            shared.telemetry().record_timed(Stage::Service, label, micros.saturating_mul(1000));
            refused
        });
        let refused = match outcome {
            Ok(Some(refused)) => refused,
            Ok(None) => break true,
            Err(e) => {
                // Answer with the typed protocol error and count the
                // shape; the assembler consumed the offending frame, so
                // keep serving until the error budget runs out.
                let label = answer_refusal(response, &e);
                shared.telemetry().record(Stage::FrameDecode, label);
                true
            }
        };
        // One extra '\n' turns the answer into a frame of its own, so
        // clients can pipeline with the same assembler.
        response.push('\n');
        stats.frames += 1;
        if refused {
            *errors += 1;
            if *errors >= shared.config.error_budget.max(1) {
                shared.telemetry().record(Stage::Admission, labels::ERROR_BUDGET);
                break false;
            }
        }
    };
    if open && conn.expired() {
        expire_connection(shared, conn, response);
        open = false;
    }
    flush(out, response, stats) && open
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::GramServerBuilder;
    use gridauthz_clock::SimClock;
    use gridauthz_core::paper;
    use gridauthz_credential::{pem, CertificateAuthority, GridMapEntry, GridMapFile, TrustStore};

    /// A sink that records every `write` call separately, so a test can
    /// count syscalls-to-be exactly and see what each one carried.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A front-end clock that moves one microsecond forward every time
    /// it is read, so a connection deadline passes part-way through a
    /// drain.
    struct TickingClock(AtomicU64);

    impl TimeSource for TickingClock {
        fn now(&self) -> SimTime {
            SimTime::from_micros(self.0.fetch_add(1, Ordering::Relaxed))
        }
    }

    /// A GT2 server holding one job of Bo Liu's, plus the `STATUS` frame
    /// that polls it with Bo's PEM chain.
    fn status_fixture() -> (Arc<GramServer>, String) {
        let clock = SimClock::new();
        let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone());
        let bo = ca.issue_identity(paper::BO_LIU_DN, SimDuration::from_hours(24)).unwrap();
        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(paper::bo_liu(), vec!["bliu".into()]));
        let server = GramServerBuilder::new("anl-cluster", &clock)
            .trust(trust)
            .gridmap(gridmap)
            .cluster(gridauthz_scheduler::Cluster::uniform(4, 8, 16_384))
            .build();
        let contact = server
            .submit(bo.chain(), "&(executable = test1)(count = 1)", None, SimDuration::from_mins(5))
            .unwrap();
        let frame = format!(
            "{}GRAM/1 STATUS\njob: {}\n\n",
            pem::encode_chain(bo.chain()),
            contact.as_str()
        );
        (Arc::new(server), frame)
    }

    /// Pushes `bytes` into a fresh assembler and drains it once under a
    /// connection context of `budget`, returning whether the connection
    /// stays open, the writes made, and the worker counters.
    fn drain_once(
        shared: &Shared,
        budget: SimDuration,
        bytes: &[u8],
    ) -> (bool, Vec<Vec<u8>>, WorkerStats) {
        let conn = RequestContext::with_budget(
            Arc::clone(&shared.clock),
            AdmissionClass::Interactive,
            budget,
        );
        let mut assembler = FrameAssembler::new(MAX_FRAME_BYTES);
        assembler.push(bytes);
        let mut out = CountingWriter::default();
        let mut response = String::new();
        let mut stats = WorkerStats::default();
        let mut queue_wait = SimDuration::ZERO;
        let open = drain_frames(
            shared,
            &conn,
            &mut queue_wait,
            &mut out,
            &mut assembler,
            &mut response,
            &mut stats,
            &mut 0,
        );
        assert!(response.is_empty(), "a drain leaves nothing unflushed");
        (open, out.writes, stats)
    }

    #[test]
    fn a_pipelined_window_is_answered_with_exactly_one_write() {
        let (server, frame) = status_fixture();
        let shared = Shared::new(server, Arc::new(SimClock::new()), FrontendConfig::default(), 1);
        let budget = SimDuration::from_secs(2);

        // The same eight frames served one at a time: one write each.
        let mut one_at_a_time = Vec::new();
        for _ in 0..8 {
            let (open, writes, _) = drain_once(&shared, budget, frame.as_bytes());
            assert!(open);
            assert_eq!(writes.len(), 1);
            one_at_a_time.extend_from_slice(&writes[0]);
        }

        // All eight pushed at once: one write carrying the same bytes.
        let (open, writes, stats) = drain_once(&shared, budget, frame.repeat(8).as_bytes());
        assert!(open);
        assert_eq!(writes.len(), 1, "eight pipelined frames must cost one write");
        assert_eq!(stats, WorkerStats { frames: 8, writes: 1, ..WorkerStats::default() });
        assert_eq!(writes[0], one_at_a_time);
        let text = String::from_utf8(writes[0].clone()).unwrap();
        assert_eq!(text.matches("GRAM/1 REPORT\n").count(), 8, "{text}");
    }

    #[test]
    fn a_deadline_passing_mid_drain_flushes_the_answers_then_busy_together() {
        let (server, frame) = status_fixture();
        let clock = Arc::new(TickingClock(AtomicU64::new(0)));
        let shared = Shared::new(server, clock, FrontendConfig::default(), 1);
        // The connection context reads the clock once at creation, and
        // every frame reads it several more times: the deadline passes
        // while the window is being answered.
        let (open, writes, stats) =
            drain_once(&shared, SimDuration::from_micros(3), frame.repeat(8).as_bytes());
        assert!(!open, "an expired connection closes");
        assert_eq!(writes.len(), 1, "answers and BUSY share one write");
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.frames, 8);
        let text = String::from_utf8(writes[0].clone()).unwrap();
        let frames: Vec<&str> = text.split_terminator("\n\n").collect();
        assert_eq!(frames.len(), 9, "{text}");
        assert!(frames[..8].iter().all(|f| f.starts_with("GRAM/1 REPORT\n")), "{text}");
        assert!(frames[8].starts_with("GRAM/1 BUSY\nretry-after-micros: "), "{text}");
        assert_eq!(shared.telemetry().counter(Stage::Admission, labels::EXPIRED), 1);
    }

    #[test]
    fn a_refused_error_value_leaves_only_the_fallback_behind_earlier_answers() {
        let mut response = String::from("GRAM/1 DONE\n\n");
        push_error_frame(&mut response, "BAD_REQUEST", "forged\ncode: OK");
        assert_eq!(response, format!("GRAM/1 DONE\n\n{}\n", crate::wire::WireResponse::FALLBACK));
    }

    /// Pins the jitter envelope: every hint lands in [75%, 125%] of the
    /// base, the same (seed, sequence) replays the same hint, and a
    /// window of sequences actually spreads (a constant function would
    /// satisfy the range check while still synchronizing the herd).
    #[test]
    fn retry_jitter_is_bounded_deterministic_and_spread() {
        let base = SimDuration::from_millis(10);
        let mut distinct = std::collections::HashSet::new();
        for sequence in 0..256 {
            let hint = jittered_retry(7, sequence, base);
            assert!(hint >= base.mul_percent(75), "hint {hint:?} below -25%");
            assert!(hint <= base.mul_percent(125), "hint {hint:?} above +25%");
            assert_eq!(hint, jittered_retry(7, sequence, base), "not deterministic");
            distinct.insert(hint.as_micros());
        }
        assert!(distinct.len() > 20, "only {} distinct hints in 256 draws", distinct.len());
        // Different seeds give different schedules.
        let schedule =
            |seed| (0..32).map(|s| jittered_retry(seed, s, base).as_micros()).collect::<Vec<_>>();
        assert_ne!(schedule(1), schedule(2));
    }
}
