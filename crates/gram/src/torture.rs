//! Deterministic protocol-torture harness for the TCP front-end.
//!
//! The front-end's connection lifecycle (deadline cutoff, idle timeout,
//! error budget — see [`crate::frontend`]) exists because wide-area
//! clients misbehave: they stall mid-frame, trickle bytes, speak the
//! wrong line discipline, send garbage, and hang up at the worst moment.
//! This module packages those behaviors as **seeded byte-level
//! adversaries** ([`Attack`]) and drives a *real* bound [`Frontend`]
//! with a storm of them ([`run_storm`]) while well-behaved live clients
//! make correlated probes through the same socket. After the storm, the
//! report checks the invariants that make the lifecycle hardening
//! trustworthy:
//!
//! 1. **Liveness** — every live client got its own answer within its
//!    budget (the worker pool was never pinned solid by adversaries);
//! 2. **No bleed** — each live answer correlates to its unique probe
//!    (responses are never interleaved across connections);
//! 3. **Recovery** — workers return to idle within a bound after the
//!    storm: active-connection, queue-depth and oldest-connection-age
//!    gauges all read zero;
//! 4. **Accounting** — telemetry's refused-frame labels count at least
//!    every framing error the adversaries were answered with.
//!
//! Everything is derived from one `u64` seed through the journal's
//! SplitMix64 generator ([`CrashRng`]) — no external randomness, so a
//! failing seed replays exactly. The harness is a library (not test
//! code) so the integration tests' default sweep and CI's wider
//! `TORTURE_SEEDS` sweep share one storm implementation.
//!
//! [`Frontend`]: crate::Frontend

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridauthz_clock::{SimDuration, WallClock};
use gridauthz_core::{AdmissionClass, RequestContext};
use gridauthz_journal::CrashRng;
use gridauthz_telemetry::{labels, Gauge, Stage, TelemetryRegistry};

use crate::client::WireClient;

/// One adversarial client behavior, driven against a live front-end
/// socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Connects, then trickles bytes of a plausible request one at a
    /// time, each arriving just inside the idle timeout — the classic
    /// slowloris. The connection deadline must cut it off.
    Slowloris,
    /// Connects, sends part of a frame, then goes completely silent
    /// (half-open: the write side is never closed). The idle timeout
    /// must cut it off.
    HalfOpenStall,
    /// Sends one valid probe split at a seeded byte boundary — including
    /// mid-`\n\n`-delimiter — and expects a correlated answer.
    SplitEveryBoundary,
    /// Speaks HTTP-style CRLF line endings. The front-end must detect
    /// the `\r\n\r\n` terminator and answer `BAD_REQUEST` instead of
    /// stalling for a bare `\n\n` that will never come.
    CrlfClient,
    /// Sends an unterminated frame and half-closes: the front-end counts
    /// a partial frame at connection close.
    NeverTerminated,
    /// Sends a frame past the front-end's size limit, expects the typed
    /// `OVERSIZED_FRAME` answer, then proves the connection survived by
    /// completing the frame and sending a valid probe behind it.
    Oversized,
    /// Sends seeded garbage (including non-UTF-8 bytes) frame after
    /// frame until the error budget closes the connection.
    Garbage,
    /// Hangs up abruptly in the middle of a frame.
    MidFrameHangup,
    /// Pipelines valid probes with a malformed frame wedged between
    /// them, and checks every answer comes back in order — no
    /// interleaving, no lost tail.
    PipelinedMix,
}

impl Attack {
    /// Every attack, in rotation order. A storm launching at least this
    /// many adversaries exercises every behavior each seed.
    pub const ALL: [Attack; 9] = [
        Attack::Slowloris,
        Attack::HalfOpenStall,
        Attack::SplitEveryBoundary,
        Attack::CrlfClient,
        Attack::NeverTerminated,
        Attack::Oversized,
        Attack::Garbage,
        Attack::MidFrameHangup,
        Attack::PipelinedMix,
    ];

    /// Stable lowercase name (report key).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Attack::Slowloris => "slowloris",
            Attack::HalfOpenStall => "half-open-stall",
            Attack::SplitEveryBoundary => "split-every-boundary",
            Attack::CrlfClient => "crlf-client",
            Attack::NeverTerminated => "never-terminated",
            Attack::Oversized => "oversized",
            Attack::Garbage => "garbage",
            Attack::MidFrameHangup => "mid-frame-hangup",
            Attack::PipelinedMix => "pipelined-mix",
        }
    }
}

/// Tunables for one [`run_storm`] call.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// PEM armor prepended to valid probes (a credential chain the
    /// target server trusts).
    pub live_pem: String,
    /// The front-end's per-frame size limit (the oversized adversary
    /// sends past it).
    pub max_frame_bytes: usize,
    /// Adversary connections to launch (rotating through
    /// [`Attack::ALL`]; at least `Attack::ALL.len()` covers every
    /// behavior).
    pub adversaries: usize,
    /// Well-behaved live clients probing during the storm.
    pub live_clients: usize,
    /// Per-attempt budget for a live probe (also every adversary's
    /// socket read timeout — nothing in the storm blocks longer).
    pub client_timeout: Duration,
    /// How long after the storm the workers have to return to idle
    /// before the recovery invariant is declared violated.
    pub settle_timeout: Duration,
}

impl TortureConfig {
    /// A storm sized for CI: full attack rotation, a few live clients,
    /// second-scale timeouts.
    #[must_use]
    pub fn new(live_pem: String, max_frame_bytes: usize) -> TortureConfig {
        TortureConfig {
            live_pem,
            max_frame_bytes,
            adversaries: Attack::ALL.len(),
            live_clients: 3,
            client_timeout: Duration::from_secs(2),
            settle_timeout: Duration::from_secs(2),
        }
    }
}

/// The outcome of one seeded storm. `violations` empty means every
/// invariant held.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// The storm's seed.
    pub seed: u64,
    /// Attacks launched, in launch order.
    pub attacks: Vec<&'static str>,
    /// Live probes that were answered with their own correlated frame.
    pub live_answered: u64,
    /// Framing-error answers (`PARTIAL_FRAME` / `OVERSIZED_FRAME` /
    /// `DUPLICATE_HEADER` / `BAD_REQUEST` / `IDLE_TIMEOUT`) the
    /// adversaries received.
    pub error_answers: u64,
    /// Growth of the refused-frame / lifecycle telemetry counters over
    /// the storm.
    pub refusals_counted: u64,
    /// Every invariant violation, human-readable. Empty = pass.
    pub violations: Vec<String>,
}

impl StormReport {
    /// True when every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The unique probe message live clients and probing adversaries send:
/// a STATUS for a job contact that encodes (seed, tag), so the expected
/// `UNKNOWN_JOB` answer quotes text no other in-flight request shares.
fn probe_message(pem: &str, seed: u64, tag: &str) -> (String, String) {
    let contact = format!("gram://torture/{seed}/{tag}");
    (format!("{pem}GRAM/1 STATUS\njob: {contact}\n\n"), contact)
}

/// True when `response` is the correlated answer for `contact`.
fn is_correlated(response: &str, contact: &str) -> bool {
    response.starts_with("GRAM/1 ERROR\n")
        && response.contains("code: UNKNOWN_JOB")
        && response.contains(contact)
}

/// Sum of the telemetry counters a refused or cut-off frame lands in.
fn refusal_total(telemetry: &TelemetryRegistry) -> u64 {
    let decode: u64 = [
        labels::FRAME_PARTIAL,
        labels::FRAME_OVERSIZED,
        labels::DUPLICATE_HEADER,
        labels::BAD_REQUEST,
    ]
    .iter()
    .map(|label| telemetry.counter(Stage::FrameDecode, label))
    .sum();
    let lifecycle: u64 = [
        labels::IDLE_TIMEOUT,
        labels::ERROR_BUDGET,
        labels::EXPIRED,
        labels::SHED,
        labels::SHUTDOWN,
    ]
    .iter()
    .map(|label| telemetry.counter(Stage::Admission, label))
    .sum();
    decode + lifecycle
}

/// What one adversary observed.
#[derive(Debug, Default)]
struct AttackOutcome {
    /// `GRAM/1 ERROR` / `GRAM/1 BUSY` frames the server answered with.
    error_answers: u64,
    /// Invariant violations seen from this connection's point of view.
    violations: Vec<String>,
}

/// Reads frames until the server closes or the timeout passes, counting
/// error/busy answers. Never blocks past `timeout`.
fn drain_answers(stream: &mut TcpStream, timeout: Duration, outcome: &mut AttackOutcome) {
    let _ = stream.set_read_timeout(Some(timeout));
    let start = Instant::now();
    let mut buf = [0u8; 4096];
    let mut text = String::new();
    while start.elapsed() < timeout {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => text.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(_) => break,
        }
    }
    outcome.error_answers += count_error_frames(&text);
}

/// Error/busy frames in a response stream.
fn count_error_frames(text: &str) -> u64 {
    let errors = text.matches("GRAM/1 ERROR\n").count();
    let busy = text.matches("GRAM/1 BUSY\n").count();
    (errors + busy) as u64
}

fn run_attack(
    attack: Attack,
    addr: SocketAddr,
    mut rng: CrashRng,
    seed: u64,
    tag: u64,
    config: &TortureConfig,
) -> AttackOutcome {
    let mut outcome = AttackOutcome::default();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        outcome.violations.push(format!("{}: connect refused", attack.as_str()));
        return outcome;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.client_timeout));
    let started = Instant::now();
    match attack {
        Attack::Slowloris => {
            // Trickle a plausible request forever (bounded by the client
            // timeout); the server's connection deadline must cut in.
            let (message, _) = probe_message(&config.live_pem, seed, &format!("slow-{tag}"));
            let bytes = message.as_bytes();
            let mut wrote = 0usize;
            while started.elapsed() < config.client_timeout {
                // Never finish the frame: stop short of the delimiter.
                let next = wrote % (bytes.len() - 2);
                if stream.write_all(&bytes[next..=next]).is_err() {
                    break; // server cut us off
                }
                wrote += 1;
                std::thread::sleep(Duration::from_millis(5 + rng.below(10)));
                // A cutoff answer may already be queued locally.
                let mut probe_buf = [0u8; 1024];
                let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
                match stream.read(&mut probe_buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        outcome.error_answers +=
                            count_error_frames(&String::from_utf8_lossy(&probe_buf[..n]));
                    }
                    Err(_) => {}
                }
            }
            if started.elapsed() >= config.client_timeout {
                outcome.violations.push(format!(
                    "slowloris: server never cut off a trickling connection within {:?}",
                    config.client_timeout
                ));
            }
        }
        Attack::HalfOpenStall => {
            let (message, _) = probe_message(&config.live_pem, seed, &format!("stall-{tag}"));
            let cut = 1 + rng.below(message.len() as u64 - 3) as usize;
            let _ = stream.write_all(&message.as_bytes()[..cut]);
            // Total silence. The idle timeout (or connection deadline)
            // must end this; a read returning 0/err within the client
            // timeout proves it did.
            let mut buf = [0u8; 1024];
            let mut saw_end = false;
            let mut text = String::new();
            while started.elapsed() < config.client_timeout {
                match stream.read(&mut buf) {
                    Ok(0) => {
                        saw_end = true;
                        break;
                    }
                    Ok(n) => text.push_str(&String::from_utf8_lossy(&buf[..n])),
                    Err(_) => break,
                }
            }
            outcome.error_answers += count_error_frames(&text);
            if !saw_end && count_error_frames(&text) == 0 {
                outcome.violations.push(format!(
                    "half-open-stall: server neither answered nor closed within {:?}",
                    config.client_timeout
                ));
            }
        }
        Attack::SplitEveryBoundary => {
            let (message, contact) = probe_message(&config.live_pem, seed, &format!("split-{tag}"));
            let bytes = message.as_bytes();
            // A seeded boundary, biased to the interesting tail region so
            // mid-`\n\n` (len-1) comes up often across a sweep.
            let split = if rng.below(3) == 0 {
                bytes.len() - 1 // between the two delimiter newlines
            } else {
                1 + rng.below(bytes.len() as u64 - 1) as usize
            };
            let _ = stream.write_all(&bytes[..split]);
            let _ = stream.flush();
            std::thread::sleep(Duration::from_millis(2 + rng.below(8)));
            let _ = stream.write_all(&bytes[split..]);
            let mut reader = AnswerReader::new();
            match reader.read_frame(&mut stream, config.client_timeout) {
                Some(response) if is_correlated(&response, &contact) => {}
                Some(response) => outcome.violations.push(format!(
                    "split-every-boundary: uncorrelated answer for {contact}: {response:?}"
                )),
                None => outcome
                    .violations
                    .push("split-every-boundary: no answer within timeout".to_string()),
            }
        }
        Attack::CrlfClient => {
            let request = format!("GRAM/1 STATUS\r\njob: crlf-{seed}-{tag}\r\n\r\n");
            let _ = stream.write_all(request.as_bytes());
            let mut reader = AnswerReader::new();
            match reader.read_frame(&mut stream, config.client_timeout) {
                Some(response) if response.starts_with("GRAM/1 ERROR\n") => {
                    outcome.error_answers += 1;
                }
                Some(response) => outcome
                    .violations
                    .push(format!("crlf-client: expected an error frame, got {response:?}")),
                None => outcome.violations.push(
                    "crlf-client: CRLF frame stalled instead of drawing an answer".to_string(),
                ),
            }
        }
        Attack::NeverTerminated => {
            let filler = 16 + rng.below(512) as usize;
            let mut body = format!("GRAM/1 STATUS\njob: never-{seed}-{tag}-");
            body.push_str(&"x".repeat(filler));
            let _ = stream.write_all(body.as_bytes());
            let _ = stream.shutdown(Shutdown::Write);
            drain_answers(&mut stream, config.client_timeout, &mut outcome);
        }
        Attack::Oversized => {
            let mut big = format!("GRAM/1 SUBMIT\nrsl: oversize-{seed}-{tag}-");
            big.push_str(&"z".repeat(config.max_frame_bytes + 64));
            let _ = stream.write_all(big.as_bytes());
            let mut reader = AnswerReader::new();
            match reader.read_frame(&mut stream, config.client_timeout) {
                Some(response) if response.contains("code: OVERSIZED_FRAME") => {
                    outcome.error_answers += 1;
                    // The connection must survive: finish the oversized
                    // frame, then a valid probe behind it must answer.
                    let (message, contact) =
                        probe_message(&config.live_pem, seed, &format!("after-over-{tag}"));
                    let _ = stream.write_all(b"\n\n");
                    let _ = stream.write_all(message.as_bytes());
                    match reader.read_frame(&mut stream, config.client_timeout) {
                        Some(answer) if is_correlated(&answer, &contact) => {}
                        other => outcome.violations.push(format!(
                            "oversized: connection did not survive a refused frame: {other:?}"
                        )),
                    }
                }
                other => outcome
                    .violations
                    .push(format!("oversized: expected an OVERSIZED_FRAME answer, got {other:?}")),
            }
        }
        Attack::Garbage => {
            // Garbage frames until the server hangs up (error budget).
            let mut closed = false;
            for _ in 0..32 {
                let len = 4 + rng.below(48) as usize;
                let mut junk: Vec<u8> = (0..len).map(|_| (rng.below(0xFF) as u8).max(1)).collect();
                junk.retain(|&b| b != b'\n');
                junk.extend_from_slice(b"\n\n");
                if stream.write_all(&junk).is_err() {
                    closed = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            drain_answers(&mut stream, config.client_timeout, &mut outcome);
            if !closed && outcome.error_answers == 0 {
                outcome
                    .violations
                    .push("garbage: no error answers and no close for a garbage stream".into());
            }
        }
        Attack::MidFrameHangup => {
            let (message, _) = probe_message(&config.live_pem, seed, &format!("hangup-{tag}"));
            let cut = 1 + rng.below(message.len() as u64 - 3) as usize;
            let _ = stream.write_all(&message.as_bytes()[..cut]);
            std::thread::sleep(Duration::from_millis(rng.below(10)));
            drop(stream); // abrupt close mid-frame
            return outcome;
        }
        Attack::PipelinedMix => {
            let (first, contact_a) =
                probe_message(&config.live_pem, seed, &format!("pipe-a-{tag}"));
            let (second, contact_b) =
                probe_message(&config.live_pem, seed, &format!("pipe-b-{tag}"));
            let wedged = format!("{first}no-colon-line\n\n{second}");
            let _ = stream.write_all(wedged.as_bytes());
            let mut reader = AnswerReader::new();
            let answers: Vec<Option<String>> =
                (0..3).map(|_| reader.read_frame(&mut stream, config.client_timeout)).collect();
            let ordered = matches!(
                (&answers[0], &answers[1], &answers[2]),
                (Some(a), Some(e), Some(b))
                    if is_correlated(a, &contact_a)
                        && e.starts_with("GRAM/1 ERROR\n")
                        && !is_correlated(e, &contact_a)
                        && !is_correlated(e, &contact_b)
                        && is_correlated(b, &contact_b)
            );
            if ordered {
                outcome.error_answers += 1;
            } else {
                outcome
                    .violations
                    .push(format!("pipelined-mix: answers out of order or missing: {answers:?}"));
            }
        }
    }
    outcome
}

/// A client-side response reader. The assembler persists across calls
/// so pipelined answers arriving in one TCP segment are not dropped
/// between reads.
struct AnswerReader {
    assembler: crate::wire::FrameAssembler,
    buf: [u8; 4096],
}

impl AnswerReader {
    fn new() -> AnswerReader {
        AnswerReader {
            assembler: crate::wire::FrameAssembler::with_default_limit(),
            buf: [0; 4096],
        }
    }

    /// Reads one `\n\n`-terminated frame, or `None` on timeout / close /
    /// unframeable bytes.
    fn read_frame(&mut self, stream: &mut TcpStream, timeout: Duration) -> Option<String> {
        let _ = stream.set_read_timeout(Some(timeout));
        let start = Instant::now();
        loop {
            match self.assembler.next_frame(|text| text.to_string()) {
                Ok(Some(frame)) => return Some(frame),
                Ok(None) => {}
                Err(_) => return None,
            }
            if start.elapsed() >= timeout {
                return None;
            }
            match stream.read(&mut self.buf) {
                Ok(0) => return None,
                Ok(n) => self.assembler.push(&self.buf[..n]),
                Err(_) => return None,
            }
        }
    }
}

/// One live client: seeded unique probes through [`WireClient`], with
/// bounded retries across reconnects (a BUSY answer or a cut connection
/// is a legal server response under load — an unanswered probe is not).
fn run_live_client(
    addr: SocketAddr,
    seed: u64,
    tag: u64,
    config: &TortureConfig,
) -> (u64, Vec<String>) {
    let mut answered = 0u64;
    let mut violations = Vec::new();
    for probe in 0..2u64 {
        let (message, contact) =
            probe_message(&config.live_pem, seed, &format!("live-{tag}-{probe}"));
        let mut served = false;
        let mut last = String::from("no attempt ran");
        for _attempt in 0..4 {
            let Ok(mut client) = WireClient::connect(addr) else {
                last = "connect refused".to_string();
                continue;
            };
            let ctx = RequestContext::with_budget(
                Arc::new(WallClock::new()),
                AdmissionClass::Interactive,
                SimDuration::from_micros(config.client_timeout.as_micros() as u64),
            );
            match client.request(&ctx, &message) {
                Ok(response) if is_correlated(&response, &contact) => {
                    served = true;
                    break;
                }
                Ok(response) if response.starts_with("GRAM/1 BUSY\n") => {
                    last = format!("busy: {response:?}");
                    std::thread::sleep(Duration::from_millis(20));
                }
                Ok(response) => {
                    // Any other frame on this connection is bleed: it
                    // carries someone else's answer.
                    violations.push(format!(
                        "live client {tag}: uncorrelated answer for {contact}: {response:?}"
                    ));
                    served = true; // counted as a violation, not a stall
                    break;
                }
                Err(e) => {
                    last = format!("io: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        if served {
            if violations.is_empty() {
                answered += 1;
            }
        } else {
            violations.push(format!(
                "live client {tag}: probe {contact} never answered within budget ({last})"
            ));
        }
    }
    (answered, violations)
}

/// Runs one seeded storm against a bound front-end at `addr`, reading
/// invariants through the server's `telemetry` registry. The front-end
/// should be configured with short connection budgets and a short idle
/// timeout (so cutoffs happen within `config.client_timeout`) and with
/// `max_frame_bytes == config.max_frame_bytes`.
pub fn run_storm(
    addr: SocketAddr,
    telemetry: &TelemetryRegistry,
    seed: u64,
    config: &TortureConfig,
) -> StormReport {
    let rng = CrashRng::new(seed);
    let refusals_before = refusal_total(telemetry);
    let offset = rng.clone().below(Attack::ALL.len() as u64) as usize;
    let attacks: Vec<Attack> =
        (0..config.adversaries).map(|i| Attack::ALL[(offset + i) % Attack::ALL.len()]).collect();

    let mut violations = Vec::new();
    let mut error_answers = 0u64;
    let mut live_answered = 0u64;
    std::thread::scope(|scope| {
        let adversaries: Vec<_> = attacks
            .iter()
            .enumerate()
            .map(|(i, &attack)| {
                let rng = rng.substream(i as u64);
                scope.spawn(move || run_attack(attack, addr, rng, seed, i as u64, config))
            })
            .collect();
        let live: Vec<_> = (0..config.live_clients)
            .map(|i| scope.spawn(move || run_live_client(addr, seed, i as u64, config)))
            .collect();
        for handle in adversaries {
            match handle.join() {
                Ok(outcome) => {
                    error_answers += outcome.error_answers;
                    violations.extend(outcome.violations);
                }
                Err(_) => violations.push("adversary thread panicked".to_string()),
            }
        }
        for handle in live {
            match handle.join() {
                Ok((answered, live_violations)) => {
                    live_answered += answered;
                    violations.extend(live_violations);
                }
                Err(_) => violations.push("live client thread panicked".to_string()),
            }
        }
    });

    // Recovery: every worker back to idle, queues empty, oldest-age zero.
    let settle_start = Instant::now();
    loop {
        let active = telemetry.gauge(Gauge::ConnectionsActive);
        let q_int = telemetry.gauge(Gauge::QueueDepthInteractive);
        let q_batch = telemetry.gauge(Gauge::QueueDepthBatch);
        let oldest = telemetry.gauge(Gauge::OldestConnectionAgeMicros);
        if active == 0 && q_int == 0 && q_batch == 0 && oldest == 0 {
            break;
        }
        if settle_start.elapsed() >= config.settle_timeout {
            violations.push(format!(
                "workers did not return to idle within {:?}: active={active} \
                 queue-interactive={q_int} queue-batch={q_batch} oldest-age-micros={oldest}",
                config.settle_timeout
            ));
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Accounting: every framing error answered on the wire must have
    // been counted under a refused-frame / lifecycle label.
    let refusals_counted = refusal_total(telemetry).saturating_sub(refusals_before);
    if refusals_counted < error_answers {
        violations.push(format!(
            "telemetry under-counts refusals: {refusals_counted} counted, \
             {error_answers} error answers observed on the wire"
        ));
    }

    StormReport {
        seed,
        attacks: attacks.iter().map(|a| a.as_str()).collect(),
        live_answered,
        error_answers,
        refusals_counted,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_messages_are_unique_and_correlate() {
        let (m1, c1) = probe_message("PEM\n", 1, "a");
        let (m2, c2) = probe_message("PEM\n", 1, "b");
        assert_ne!(c1, c2);
        assert!(m1.starts_with("PEM\n") && m1.ends_with("\n\n"));
        assert!(m1.contains(&c1) && !m2.contains(&c1));
        let answer = format!("GRAM/1 ERROR\ncode: UNKNOWN_JOB\nmessage: unknown job {c1}\n");
        assert!(is_correlated(&answer, &c1));
        assert!(!is_correlated(&answer, &c2));
        assert!(!is_correlated("GRAM/1 DONE\n", &c1));
    }

    #[test]
    fn attack_rotation_covers_every_behavior() {
        let names: std::collections::HashSet<_> = Attack::ALL.iter().map(|a| a.as_str()).collect();
        assert_eq!(names.len(), Attack::ALL.len(), "attack names are distinct");
        // A storm with adversaries >= ALL.len() launches each at least
        // once regardless of the seeded rotation offset.
        for offset in 0..Attack::ALL.len() {
            let launched: std::collections::HashSet<_> = (0..Attack::ALL.len())
                .map(|i| Attack::ALL[(offset + i) % Attack::ALL.len()].as_str())
                .collect();
            assert_eq!(launched, names);
        }
    }

    #[test]
    fn error_frame_counting_sees_errors_and_busy() {
        let text = "GRAM/1 ERROR\ncode: BAD_REQUEST\nmessage: m\n\nGRAM/1 BUSY\nretry-after-micros: 5\n\nGRAM/1 DONE\n\n";
        assert_eq!(count_error_frames(text), 2);
        assert_eq!(count_error_frames(""), 0);
    }
}
