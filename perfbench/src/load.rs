//! Closed-loop sessions and the loopback TCP client.
//!
//! A session is: connect, send `session_frames` frames keeping `window`
//! in flight, check every response, close. Nothing is retried: a
//! transport error fails every frame still in flight, a `BUSY` answer
//! fails its frame, and the lane goes on with a fresh session.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use gridauthz_credential::GridMapFile;
use gridauthz_gram::GramServer;

use crate::stats::Histogram;
use crate::workload::{Lane, Outcome, Pems, Pending, Workload};

/// Carries frames to the server and answers back, one frame at a time.
pub trait Transport {
    /// Sends one complete frame.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;
    /// The next response frame, without its terminating blank line.
    fn recv(&mut self) -> io::Result<&str>;
}

/// What one lane observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent (or whose connection could not be opened).
    pub attempted: u64,
    /// Responses that matched their expectation.
    pub ok: u64,
    /// Transport errors, `BUSY` answers and mismatches.
    pub failed: u64,
    /// Responses that contradicted the oracle.
    pub mismatches: u64,
    /// The first mismatch, for the report.
    pub first_mismatch: Option<String>,
    /// Sessions completed without a transport error.
    pub sessions: u64,
    /// Send-to-response latency of every correct response.
    pub latency: Histogram,
}

impl Tally {
    /// Adds `other`'s counts and samples.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.sessions += other.sessions;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
        self.latency.merge(&other.latency);
    }

    fn record(&mut self, outcome: Outcome, latency: Duration) {
        match outcome {
            Outcome::Ok => {
                self.ok += 1;
                self.latency.record(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
            }
            Outcome::Busy => self.failed += 1,
            Outcome::Mismatch(what) => {
                self.failed += 1;
                self.mismatches += 1;
                self.first_mismatch.get_or_insert(what);
            }
        }
    }
}

/// Swaps the site's grid-map for an identical copy: a membership or CRL
/// update that changes nothing but invalidates the server's
/// authentication and decision caches.
pub fn churn(server: &GramServer, gridmap: &GridMapFile) {
    server.set_gridmap(gridmap.clone()).expect("grid-map swap is accepted");
}

/// Runs one session of `lane` over `transport`. On a transport error the
/// frames in flight are counted as failed and the error is returned.
pub fn run_session<T: Transport>(
    workload: Workload,
    lane: &mut Lane,
    pems: &Pems,
    transport: &mut T,
    on_churn: &mut dyn FnMut(),
    tally: &mut Tally,
    frame: &mut Vec<u8>,
) -> io::Result<()> {
    let mut inflight = VecDeque::with_capacity(workload.window());
    let result =
        session_frames(workload, lane, pems, transport, on_churn, tally, frame, &mut inflight);
    match result {
        Ok(()) => tally.sessions += 1,
        Err(_) => tally.failed += inflight.len() as u64,
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn session_frames<T: Transport>(
    workload: Workload,
    lane: &mut Lane,
    pems: &Pems,
    transport: &mut T,
    on_churn: &mut dyn FnMut(),
    tally: &mut Tally,
    frame: &mut Vec<u8>,
    inflight: &mut VecDeque<(Pending, Instant)>,
) -> io::Result<()> {
    let total = workload.session_frames();
    let mut sent = 0;
    loop {
        // Fill the window, then wait for the oldest answer.
        while sent < total && inflight.len() < workload.window() {
            let pending = lane.next(pems, frame);
            if pending.churn {
                on_churn();
            }
            tally.attempted += 1;
            sent += 1;
            inflight.push_back((pending, Instant::now()));
            transport.send(frame)?;
        }
        if inflight.is_empty() {
            return Ok(());
        }
        let response = transport.recv()?;
        let (pending, at) = inflight.pop_front().expect("a frame is in flight");
        let latency = at.elapsed();
        tally.record(lane.complete(pending, response), latency);
    }
}

/// A client connection that reassembles `\n\n`-terminated response
/// frames.
pub struct TcpTransport {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of the first unconsumed byte in `buf`.
    start: usize,
}

impl TcpTransport {
    /// Connects to `addr` with Nagle off and a read timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(TcpTransport { stream, buf: Vec::with_capacity(64 * 1024), start: 0 })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }

    fn recv(&mut self) -> io::Result<&str> {
        loop {
            if let Some(at) = self.buf[self.start..].windows(2).position(|w| w == b"\n\n") {
                let begin = self.start;
                self.start = begin + at + 2;
                return std::str::from_utf8(&self.buf[begin..=begin + at])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            self.buf.drain(..self.start);
            self.start = 0;
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// How long each lane keeps opening sessions.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// This many sessions per lane.
    Sessions(u64),
    /// New sessions until this long after the common start.
    Time(Duration),
}

/// Runs `lane`'s sessions over fresh connections to `addr` until its
/// budget, counted from `start`, is spent.
#[allow(clippy::too_many_arguments)]
fn drive_tcp(
    workload: Workload,
    lane: &mut Lane,
    pems: &Pems,
    addr: SocketAddr,
    server: &GramServer,
    gridmap: &GridMapFile,
    budget: Budget,
    start: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let mut frame = Vec::with_capacity(4096);
    let mut run = 0;
    loop {
        let spent = match budget {
            Budget::Sessions(n) => run >= n,
            Budget::Time(limit) => start.elapsed() >= limit,
        };
        if spent {
            return tally;
        }
        run += 1;
        let mut transport = match TcpTransport::connect(addr) {
            Ok(transport) => transport,
            Err(_) => {
                tally.attempted += 1;
                tally.failed += 1;
                continue;
            }
        };
        let _ = run_session(
            workload,
            lane,
            pems,
            &mut transport,
            &mut || churn(server, gridmap),
            &mut tally,
            &mut frame,
        );
    }
}

/// Every lane over TCP from a common start, one client thread per lane.
/// Returns the merged tally and the wall time from the start until the
/// last lane finished.
pub fn run_tcp(
    workload: Workload,
    lanes: &mut [Lane],
    pems: &Pems,
    addr: SocketAddr,
    server: &GramServer,
    gridmap: &GridMapFile,
    budget: Budget,
) -> (Tally, Duration) {
    let barrier = Barrier::new(lanes.len() + 1);
    let start = OnceLock::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let (barrier, start) = (&barrier, &start);
                scope.spawn(move || {
                    barrier.wait();
                    let start = *start.get_or_init(Instant::now);
                    drive_tcp(workload, lane, pems, addr, server, gridmap, budget, start)
                })
            })
            .collect();
        barrier.wait();
        let mut merged = Tally::default();
        for handle in handles {
            merged.merge(handle.join().expect("client thread"));
        }
        let start = *start.get().expect("client threads started");
        (merged, start.elapsed())
    })
}
