//! The traced run: where the per-request time goes, layer by layer.
//!
//! 1. The workload runs over TCP on one set-up, continuously; the deltas
//!    of the program's own counters across it give the hit ratios, the
//!    journal counts, and the end-to-end per-request time.
//! 2. The same seeded request sequences are replayed in-process on the
//!    same server, one lane session at a time, each request traced or
//!    not by a coin flip. A traced request records one span per call the
//!    benchmark makes into a layer's public function; a span's self time
//!    is its duration minus the durations charged to it.
//! 3. Standalone probes time the per-verb service path, a cold and a
//!    warm authentication, a cached and an uncached decision, and one
//!    journal append, and count allocations per served request.
//!
//! The program itself is not instrumented. `handle_wire_pem_into` runs
//! authentication, decode, dispatch and encode inside one call, so the
//! traced request times each of those again on the same input right
//! next to it ("replicas", charged to the service span), and the service
//! layer keeps only what remains.

use std::collections::VecDeque;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridauthz_bench::{member_dn, CountingAllocator};
use gridauthz_core::{
    paper, Action, AuthzEngine, AuthzRequest, CombinedPdp, Combiner, PdpCallout, Policy,
    PolicyOrigin, PolicySource,
};
use gridauthz_credential::DistinguishedName;
use gridauthz_gram::wire::{request_line_offset, FrameAssembler, WireRequestRef, WireResponse};
use gridauthz_journal::{FileStorage, Journal};
use gridauthz_telemetry::Gauge;

use crate::load::{churn, run_session, run_tcp, Budget, Tally, Transport};
use crate::site::{ScratchDir, Site};
use crate::stats::{json_num, median, Metric};
use crate::workload::{Lane, Pems, Rng, Workload, HOME_RSL, WORK_MICROS};
use crate::{set_up, Ready, Report, LANES};

/// Longest TCP phase and replay of a traced run, in seconds: long
/// enough to show `submit-durable`'s state growth, short enough that the
/// jobs map of a continuously served `vo-churn` stays in the hundreds of
/// megabytes.
const TRACE_PHASE_CAP_S: u64 = 10;

/// Iterations of every standalone probe.
const PROBE_ITERS: usize = 300;

/// Spans kept for the span dump (the aggregates cover every request).
const SPAN_DUMP_CAP: usize = 240_000;

/// Per-call samples kept per layer for the medians.
const SAMPLE_CAP: usize = 500_000;

/// Span names; a span's index is its id within its request.
const SPAN_NAMES: [&str; 7] =
    ["request", "wire.frame", "auth", "wire.decode", "service", "auth.replica", "wire.encode"];
const REQUEST: usize = 0;
const FRAME: usize = 1;
const AUTH: usize = 2;
const DECODE: usize = 3;
const SERVICE: usize = 4;
const AUTH_REPLICA: usize = 5;
const ENCODE: usize = 6;

/// The span each span's time is charged against: the replicas of the
/// work `handle_wire_pem_into` does inside the service span are timed
/// next to it and charged against it.
const CHARGED_TO: [Option<usize>; 7] = [
    None,
    Some(REQUEST),
    Some(REQUEST),
    Some(SERVICE),
    Some(REQUEST),
    Some(SERVICE),
    Some(SERVICE),
];

/// One recorded span.
#[derive(Clone, Copy)]
struct Span {
    request: u64,
    id: usize,
    start: u64,
    end: u64,
}

/// Counters of the server observed before and after a phase.
#[derive(Clone, Copy, Default)]
struct Counters {
    auth_hits: u64,
    auth_misses: u64,
    decide_hits: u64,
    decide_misses: u64,
    appends: u64,
    fsyncs: u64,
    bytes: u64,
    snapshots: u64,
}

impl Counters {
    fn read(site: &Site) -> Counters {
        let auth = site.server.auth_cache_stats();
        // Taking a snapshot refreshes the decision-cache gauges.
        site.server.telemetry_snapshot();
        let telemetry = site.server.telemetry();
        let journal = site.server.journal_stats().unwrap_or_default();
        let (bytes, snapshots) = site.meter.as_ref().map_or((0, 0), |m| {
            (m.bytes.load(Ordering::Relaxed), m.snapshots.load(Ordering::Relaxed))
        });
        Counters {
            auth_hits: auth.hits,
            auth_misses: auth.misses,
            decide_hits: telemetry.gauge(Gauge::CacheHits),
            decide_misses: telemetry.gauge(Gauge::CacheMisses),
            appends: journal.appends,
            fsyncs: journal.fsyncs,
            bytes,
            snapshots,
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            auth_hits: self.auth_hits - before.auth_hits,
            auth_misses: self.auth_misses - before.auth_misses,
            decide_hits: self.decide_hits - before.decide_hits,
            decide_misses: self.decide_misses - before.decide_misses,
            appends: self.appends - before.appends,
            fsyncs: self.fsyncs - before.fsyncs,
            bytes: self.bytes - before.bytes,
            snapshots: self.snapshots - before.snapshots,
        }
    }

    fn ratio(part: u64, rest: u64) -> f64 {
        part as f64 / (part + rest).max(1) as f64
    }
}

/// Aggregates of the in-process replay.
#[derive(Default)]
struct Replayed {
    traced: u64,
    /// Untraced requests that took no checkpoint.
    untraced: u64,
    /// Sum of each span's self time over all traced requests, by id.
    self_ns: [u128; 7],
    /// Service self time of the traced requests during which the server
    /// took a checkpoint, and how many there were.
    checkpoint_service_ns: u128,
    checkpointed: u64,
    /// Durations of the traced and untraced requests that took no
    /// checkpoint (the overhead comparison; a checkpoint landing on one
    /// side would swamp it).
    overhead_traced_ns: u128,
    untraced_ns: u128,
    /// Per-call self times kept for the medians, by span id.
    samples: [Vec<u32>; 7],
    spans: Vec<Span>,
}

/// Checkpoints `site`'s server has taken so far (0 without a journal).
fn checkpoints(site: &Site) -> u64 {
    site.meter.as_ref().map_or(0, |m| m.snapshots.load(Ordering::Relaxed))
}

/// Carries frames to the server in-process: the same framing the
/// front-end applies, without sockets or threads. Each request is
/// traced or not by a coin flip, so periodic work (checkpoints, churn)
/// cannot line up with one side.
struct InProcess<'a> {
    site: &'a Site,
    queue: VecDeque<Vec<u8>>,
    spare: Vec<Vec<u8>>,
    assembler: FrameAssembler,
    text: String,
    response: String,
    scratch: String,
    coin: Rng,
    clock: Instant,
    out: Replayed,
}

impl InProcess<'_> {
    fn untraced_request(&mut self, frame: &[u8]) {
        let server = &self.site.server;
        let response = &mut self.response;
        let before = checkpoints(self.site);
        let start = Instant::now();
        self.assembler.push(frame);
        let served = self.assembler.next_frame(|text| server.handle_wire_pem_into(text, response));
        let took = start.elapsed();
        assert!(matches!(served, Ok(Some(_))), "replayed frame is complete");
        if checkpoints(self.site) == before {
            self.out.untraced += 1;
            self.out.untraced_ns += took.as_nanos();
        }
    }

    fn traced_request(&mut self, frame: &[u8]) {
        let server = &self.site.server;
        let clock = self.clock;
        let now = || u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut t = [(0u64, 0u64); 7];
        t[REQUEST].0 = now();
        t[FRAME].0 = now();
        self.assembler.push(frame);
        let text = &mut self.text;
        let served = self.assembler.next_frame(|frame| {
            text.clear();
            text.push_str(frame);
        });
        t[FRAME].1 = now();
        assert!(matches!(served, Ok(Some(()))), "replayed frame is complete");
        let split = request_line_offset(text).expect("generated frames carry a request");
        let (pem, body) = text.split_at(split);
        t[AUTH].0 = now();
        let auth = server.authenticate_pem(pem);
        t[AUTH].1 = now();
        assert!(auth.is_ok(), "generated identities authenticate");
        t[DECODE].0 = now();
        let decoded = WireRequestRef::decode(body);
        t[DECODE].1 = now();
        std::hint::black_box(&decoded);
        let before = checkpoints(self.site);
        t[SERVICE].0 = now();
        server.handle_wire_pem_into(text, &mut self.response);
        t[SERVICE].1 = now();
        let checkpointed = checkpoints(self.site) != before;
        t[AUTH_REPLICA].0 = now();
        let replica = server.authenticate_pem(pem);
        t[AUTH_REPLICA].1 = now();
        std::hint::black_box(&replica);
        let answer = WireResponse::decode(&self.response).expect("server answers parse");
        self.scratch.clear();
        t[ENCODE].0 = now();
        let encoded = answer.encode_into(&mut self.scratch);
        t[ENCODE].1 = now();
        std::hint::black_box(&encoded);
        t[REQUEST].1 = now();

        let dur = |i: usize| t[i].1.saturating_sub(t[i].0);
        let mut self_time = [0u64; 7];
        for (i, slot) in self_time.iter_mut().enumerate() {
            let charged: u64 = (0..7).filter(|&c| CHARGED_TO[c] == Some(i)).map(dur).sum();
            *slot = dur(i).saturating_sub(charged);
        }
        for (i, &ns) in self_time.iter().enumerate() {
            self.out.self_ns[i] += u128::from(ns);
            if self.out.samples[i].len() < SAMPLE_CAP {
                self.out.samples[i].push(u32::try_from(ns).unwrap_or(u32::MAX));
            }
        }
        if checkpointed {
            self.out.checkpoint_service_ns += u128::from(self_time[SERVICE]);
            self.out.checkpointed += 1;
        } else {
            self.out.overhead_traced_ns += u128::from(dur(REQUEST));
        }
        let request = self.out.traced;
        self.out.traced += 1;
        if self.out.spans.len() + 7 <= SPAN_DUMP_CAP {
            for (id, &(start, end)) in t.iter().enumerate() {
                self.out.spans.push(Span { request, id, start, end });
            }
        }
    }
}

impl Transport for InProcess<'_> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(frame);
        self.queue.push_back(buf);
        Ok(())
    }

    fn recv(&mut self) -> io::Result<&str> {
        let frame = self.queue.pop_front().expect("a frame was sent");
        self.response.clear();
        if self.coin.below(2) == 0 {
            self.traced_request(&frame);
        } else {
            self.untraced_request(&frame);
        }
        self.spare.push(frame);
        Ok(&self.response)
    }
}

/// Replays both lanes' sequences from `seed` in-process, one session
/// at a time, until `limit` requests or `budget` time.
fn replay(
    workload: Workload,
    seed: u64,
    site: &Site,
    limit: u64,
    budget: Duration,
) -> (Replayed, Tally) {
    let mut lanes: Vec<Lane> =
        (0..LANES).map(|lane| Lane::new(workload, seed, lane, LANES, &site.home)).collect();
    let mut transport = InProcess {
        site,
        queue: VecDeque::with_capacity(workload.window()),
        spare: Vec::new(),
        assembler: FrameAssembler::with_default_limit(),
        text: String::with_capacity(4096),
        response: String::with_capacity(1024),
        scratch: String::with_capacity(1024),
        coin: Rng::new(seed, LANES as u64),
        clock: Instant::now(),
        out: Replayed { spans: Vec::with_capacity(SPAN_DUMP_CAP), ..Replayed::default() },
    };
    let mut tally = Tally::default();
    let mut frame = Vec::with_capacity(4096);
    let start = Instant::now();
    let mut session = 0usize;
    while tally.attempted < limit && start.elapsed() < budget {
        run_session(
            workload,
            &mut lanes[session % LANES],
            &site.pems,
            &mut transport,
            &mut || churn(&site.server, &site.gridmap),
            &mut tally,
            &mut frame,
        )
        .expect("in-process sessions cannot fail in transport");
        session += 1;
    }
    (transport.out, tally)
}

fn nanos<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, start.elapsed().as_nanos() as f64)
}

fn admin_dn() -> DistinguishedName {
    format!("{}/CN=VO Admin", paper::MCS_PREFIX).parse().expect("admin DN parses")
}

fn job(rsl: &str) -> gridauthz_rsl::Conjunction {
    gridauthz_gram::normalize_job(&gridauthz_bench::parse_conj(rsl))
}

/// Management request as the server builds it for a job of `owner`.
fn manage(subject: DistinguishedName, action: Action, owner: DistinguishedName) -> AuthzRequest {
    AuthzRequest::manage_job(
        subject,
        action,
        owner,
        Some("NFC".to_string()),
        job(HOME_RSL),
        "https://anl-cluster/jobs/0",
        Vec::new(),
    )
}

/// Authorization requests equivalent to the workload's traffic.
fn authz_requests(workload: Workload) -> Vec<AuthzRequest> {
    let valid = |i: usize| {
        AuthzRequest::start(
            member_dn(i),
            job(&format!("&(executable = TRANSP)(jobtag = NFC)(count = {})", 1 + i % 15)),
        )
    };
    match workload {
        Workload::StatusHot => {
            (0..16).map(|i| manage(member_dn(i), Action::Information, member_dn(i))).collect()
        }
        Workload::SubmitDurable => (0..16)
            .flat_map(|i| [valid(i), manage(member_dn(i), Action::Cancel, member_dn(i))])
            .collect(),
        Workload::VoChurn => (0..32)
            .flat_map(|i| {
                [
                    valid(i),
                    AuthzRequest::start(
                        member_dn(i),
                        job(&format!("&(executable = TRANSP)(count = {})", 1 + i % 15)),
                    ),
                    manage(member_dn(i), Action::Information, member_dn(i)),
                    manage(admin_dn(), Action::Signal, member_dn(i)),
                    manage(member_dn(i), Action::Cancel, member_dn(i + 1)),
                ]
            })
            .collect(),
    }
}

/// An engine assembled like the testbed server's: the resource owner's
/// policy and the VO's (Figure 3 plus the generated role grants),
/// deny-overrides, behind a caching PDP callout.
fn decision_engine(site: &Site) -> AuthzEngine {
    let local: Policy = gridauthz_sim::LOCAL_POLICY.parse().expect("testbed policy parses");
    let mut vo_statements = paper::figure3_policy().statements().to_vec();
    vo_statements.extend(site.vo.generate_policy().statements().iter().cloned());
    let pdp = CombinedPdp::new(
        vec![
            PolicySource::new("local", PolicyOrigin::ResourceOwner, local),
            PolicySource::new(
                "fusion-vo",
                PolicyOrigin::VirtualOrganization("fusion".into()),
                Policy::from_statements(vo_statements),
            ),
        ],
        Combiner::DenyOverrides,
    );
    let mut engine = AuthzEngine::pass_through("perfbench");
    engine.push_callout(Arc::new(PdpCallout::cached("gram-authorization", pdp)));
    engine
}

/// `decide.cached_ns` and `decide.uncached_ns`: one authorization on a
/// cache hit, and one right after the cache was invalidated.
fn probe_decide(workload: Workload, site: &Site) -> (f64, f64) {
    let engine = decision_engine(site);
    let requests = authz_requests(workload);
    let mut cached = Vec::with_capacity(PROBE_ITERS);
    let mut uncached = Vec::with_capacity(PROBE_ITERS);
    for i in 0..PROBE_ITERS {
        let request = requests[i % requests.len()].clone();
        engine.policy_updated();
        let (_, cold) = nanos(|| engine.authorize(&request));
        let (_, warm) = nanos(|| engine.authorize(&request));
        uncached.push(cold);
        cached.push(warm);
    }
    (median(&mut cached), median(&mut uncached))
}

/// `auth.warm_ns` and `auth.cold_ns`: `authenticate_pem` right after a
/// grid-map swap invalidated the cache, then again on the hit.
fn probe_auth(site: &Site) -> (f64, f64) {
    let mut warm = Vec::with_capacity(PROBE_ITERS);
    let mut cold = Vec::with_capacity(PROBE_ITERS);
    let pems = &site.pems.members;
    for i in 0..PROBE_ITERS {
        let pem = &pems[i % pems.len()];
        churn(&site.server, &site.gridmap);
        let (first, c) = nanos(|| site.server.authenticate_pem(pem));
        let (second, w) = nanos(|| site.server.authenticate_pem(pem));
        assert!(first.is_ok() && second.is_ok(), "member chains authenticate");
        cold.push(c);
        warm.push(w);
    }
    (median(&mut warm), median(&mut cold))
}

/// `journal.append_us`: one `Journal::append` (write plus fsync) of a
/// `record`-byte payload on a file journal in the run's directory.
fn probe_journal(scratch: &Path, record: usize) -> io::Result<f64> {
    let dir = ScratchDir::create(scratch, "append-probe")?;
    let storage = FileStorage::open(dir.path().join("probe.wal"))?;
    let (journal, _) = Journal::open(Box::new(storage))?;
    let payload = vec![0xa5u8; record];
    let mut times = Vec::with_capacity(PROBE_ITERS);
    for _ in 0..PROBE_ITERS {
        let (result, ns) = nanos(|| journal.append(&payload));
        result.map_err(|e| io::Error::other(format!("probe append failed: {e:?}")))?;
        times.push(ns / 1_000.0);
    }
    Ok(median(&mut times))
}

/// Per-verb service time (one `handle_wire_pem_into` minus a replica
/// decode, a cache-hit authentication and an encode of the same frame)
/// and allocations per served request.
struct ServiceProbe {
    status_ns: f64,
    signal_ns: f64,
    submit_ns: f64,
    cancel_ns: f64,
    denied_ns: f64,
    alloc_status: f64,
    alloc_submit: f64,
    alloc_cancel: f64,
}

fn probe_service(site: &Site, allocator: &CountingAllocator) -> ServiceProbe {
    let server = &site.server;
    let pems: &Pems = &site.pems;
    let pem = &pems.members[0];
    let mut out = String::with_capacity(1024);
    let mut scratch = String::with_capacity(1024);
    // One served frame: (service ns, allocations, response).
    let mut serve = |frame: &str| -> (f64, f64, String) {
        let split = request_line_offset(frame).expect("probe frames carry a request");
        let body = &frame[split..];
        out.clear();
        let before = allocator.allocations();
        let (_, total) = nanos(|| server.handle_wire_pem_into(frame, &mut out));
        let allocations = (allocator.allocations() - before) as f64;
        let (_, decode) = nanos(|| WireRequestRef::decode(body).is_ok());
        let (_, auth) = nanos(|| server.authenticate_pem(&frame[..split]).is_ok());
        let answer = WireResponse::decode(&out).expect("server answers parse");
        scratch.clear();
        let (_, encode) = nanos(|| answer.encode_into(&mut scratch).is_ok());
        (total - decode - auth - encode, allocations, out.clone())
    };
    let submit_frame =
        |rsl: &str| format!("{pem}GRAM/1 SUBMIT\nrsl: {rsl}\nwork-micros: {WORK_MICROS}\n\n");
    let contact_of = |response: &str| -> String {
        response
            .strip_prefix("GRAM/1 SUBMITTED\njob: ")
            .and_then(|r| r.split_once('\n'))
            .map(|(c, _)| c.to_string())
            .expect("probe submit admitted")
    };
    let target = match site.home.first() {
        Some(home) => home.clone(),
        None => contact_of(&serve(&submit_frame(HOME_RSL)).2),
    };
    let status = format!("{pem}GRAM/1 STATUS\njob: {target}\n\n");
    let signal = format!("{pem}GRAM/1 SIGNAL\njob: {target}\nsignal: priority 3\n\n");
    let valid = submit_frame("&(executable = TRANSP)(jobtag = NFC)(count = 2)");
    let denied = submit_frame("&(executable = TRANSP)(count = 2)");
    let mut samples: [Vec<f64>; 8] = Default::default();
    for _ in 0..PROBE_ITERS {
        let (ns, allocs, response) = serve(&status);
        assert!(response.starts_with("GRAM/1 REPORT\n"), "{response}");
        samples[0].push(ns);
        samples[5].push(allocs);
        let (ns, _, response) = serve(&signal);
        assert_eq!(response, "GRAM/1 DONE\n");
        samples[1].push(ns);
        let (ns, allocs, response) = serve(&valid);
        samples[2].push(ns);
        samples[6].push(allocs);
        let cancel = format!("{pem}GRAM/1 CANCEL\njob: {}\n\n", contact_of(&response));
        let (ns, allocs, response) = serve(&cancel);
        assert_eq!(response, "GRAM/1 DONE\n");
        samples[3].push(ns);
        samples[7].push(allocs);
        let (ns, _, response) = serve(&denied);
        assert!(response.starts_with("GRAM/1 ERROR\ncode: AUTHORIZATION_DENIED\n"), "{response}");
        samples[4].push(ns);
    }
    let [status_ns, signal_ns, submit_ns, cancel_ns, denied_ns, alloc_status, alloc_submit, alloc_cancel] =
        samples.map(|mut s| median(&mut s));
    ServiceProbe {
        status_ns,
        signal_ns,
        submit_ns,
        cancel_ns,
        denied_ns,
        alloc_status,
        alloc_submit,
        alloc_cancel,
    }
}

fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(file, "request\tspan\tname\tcharged_to\tstart_ns\tend_ns")?;
    for span in spans {
        let charged = CHARGED_TO[span.id].map_or("-", |to| SPAN_NAMES[to]);
        writeln!(
            file,
            "{}\t{}\t{}\t{charged}\t{}\t{}",
            span.request, span.id, SPAN_NAMES[span.id], span.start, span.end
        )?;
    }
    file.flush()
}

/// The traced run of `workload`; reports every per-layer metric.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: u64,
    scratch: &Path,
    allocator: &CountingAllocator,
) -> io::Result<Report> {
    let phase = Duration::from_secs(seconds.min(TRACE_PHASE_CAP_S));
    let Ready { mut site, mut lanes, warmup } = set_up(workload, seed, scratch)?;
    let addr = site.frontend.as_ref().expect("serving site").local_addr();
    let accepted = site.frontend.as_ref().map_or(0, |f| f.connections_accepted());
    let before = Counters::read(&site);
    let (tcp, wall) = run_tcp(
        workload,
        &mut lanes,
        &site.pems,
        addr,
        &site.server,
        &site.gridmap,
        Budget::Time(phase),
    );
    let tcp_counts = Counters::read(&site).since(before);
    let (sessions, shed) = site
        .frontend
        .as_ref()
        .map_or((0, 0), |f| (f.connections_accepted() - accepted, f.connections_shed()));
    site.stop_frontend();
    let throughput = tcp.ok as f64 / wall.as_secs_f64();
    let e2e_us = LANES as f64 * 1e6 / throughput.max(f64::MIN_POSITIVE);
    let jobs_held = site.server.job_count();
    let mut checkpoints = Vec::new();
    for _ in 0..3 {
        let (result, ns) = nanos(|| site.server.checkpoint());
        result.map_err(|e| io::Error::other(format!("checkpoint failed: {e}")))?;
        checkpoints.push(ns / 1e6);
    }
    let checkpoint_ms = median(&mut checkpoints);

    let before = Counters::read(&site);
    let (replayed, replay_tally) = replay(workload, seed, &site, tcp.attempted, phase);
    let replay_counts = Counters::read(&site).since(before);

    let service = probe_service(&site, allocator);
    let (decide_cached_ns, decide_uncached_ns) = probe_decide(workload, &site);
    let append_bytes = tcp_counts.bytes.checked_div(tcp_counts.appends).map_or(128, |b| b as usize);
    let append_us = probe_journal(scratch, append_bytes)?;
    let (auth_warm_ns, auth_cold_ns) = probe_auth(&site);

    // Per-request self time by layer, over the traced replayed requests.
    let traced = replayed.traced.max(1) as f64;
    let per_request_us = |i: usize| replayed.self_ns[i] as f64 / traced / 1_000.0;
    let wire_us = per_request_us(FRAME) + per_request_us(DECODE) + per_request_us(ENCODE);
    let auth_us = per_request_us(AUTH);
    let service_self_us = per_request_us(SERVICE);
    let replay_requests = replay_tally.attempted.max(1) as f64;
    let replay_hit = Counters::ratio(replay_counts.decide_hits, replay_counts.decide_misses);
    let decisions =
        (replay_counts.decide_hits + replay_counts.decide_misses) as f64 / replay_requests;
    let decide_us = (decisions
        * (replay_hit * decide_cached_ns + (1.0 - replay_hit) * decide_uncached_ns)
        / 1_000.0)
        .min(service_self_us);
    // The journal's share of the service layer: one blocking append per
    // fsync, plus what the requests that took a checkpoint spent beyond
    // an ordinary request.
    let ordinary = replayed.traced.saturating_sub(replayed.checkpointed).max(1) as f64;
    let ordinary_service_ns =
        (replayed.self_ns[SERVICE] - replayed.checkpoint_service_ns) as f64 / ordinary;
    let checkpoint_us = (replayed.checkpoint_service_ns as f64
        - replayed.checkpointed as f64 * ordinary_service_ns)
        .max(0.0)
        / traced
        / 1_000.0;
    let journal_us = (replay_counts.fsyncs as f64 / replay_requests * append_us + checkpoint_us)
        .min(service_self_us - decide_us);
    let dispatch_us = service_self_us - decide_us - journal_us;
    let attributed = wire_us + auth_us + decide_us + journal_us + dispatch_us;
    let unattributed_us = e2e_us - attributed;
    let traced_mean = replayed.overhead_traced_ns as f64
        / replayed.traced.saturating_sub(replayed.checkpointed).max(1) as f64;
    let untraced_mean = replayed.untraced_ns as f64 / replayed.untraced.max(1) as f64;
    let overhead_pct = (traced_mean / untraced_mean - 1.0) * 100.0;
    let sample_median = |i: usize| {
        let mut values: Vec<f64> = replayed.samples[i].iter().map(|&v| f64::from(v)).collect();
        (median(&mut values), values.len() as u64)
    };
    let (frame_ns, frame_n) = sample_median(FRAME);
    let (decode_ns, decode_n) = sample_median(DECODE);
    let (encode_ns, encode_n) = sample_median(ENCODE);

    let ops = tcp.attempted.max(1) as f64;
    let probes = PROBE_ITERS as u64;
    let n_traced = replayed.traced;
    let metrics = vec![
        Metric::new("frontend.sessions", sessions as f64, "count", 1),
        Metric::new("frontend.shed", shed as f64, "count", 1),
        Metric::new("wire.frame_ns", frame_ns, "ns", frame_n),
        Metric::new("wire.decode_ns", decode_ns, "ns", decode_n),
        Metric::new("wire.encode_ns", encode_ns, "ns", encode_n),
        Metric::new(
            "auth.hit_ratio",
            Counters::ratio(tcp_counts.auth_hits, tcp_counts.auth_misses),
            "ratio",
            tcp_counts.auth_hits + tcp_counts.auth_misses,
        ),
        Metric::new("auth.warm_ns", auth_warm_ns, "ns", probes),
        Metric::new("auth.cold_ns", auth_cold_ns, "ns", probes),
        Metric::new(
            "decide.hit_ratio",
            Counters::ratio(tcp_counts.decide_hits, tcp_counts.decide_misses),
            "ratio",
            tcp_counts.decide_hits + tcp_counts.decide_misses,
        ),
        Metric::new("decide.cached_ns", decide_cached_ns, "ns", probes),
        Metric::new("decide.uncached_ns", decide_uncached_ns, "ns", probes),
        Metric::new("service.status_ns", service.status_ns, "ns", probes),
        Metric::new("service.signal_ns", service.signal_ns, "ns", probes),
        Metric::new("service.submit_ns", service.submit_ns, "ns", probes),
        Metric::new("service.cancel_ns", service.cancel_ns, "ns", probes),
        Metric::new("service.denied_ns", service.denied_ns, "ns", probes),
        Metric::new("alloc.status", service.alloc_status, "count", probes),
        Metric::new("alloc.submit", service.alloc_submit, "count", probes),
        Metric::new("alloc.cancel", service.alloc_cancel, "count", probes),
        Metric::new("journal.append_us", append_us, "us", probes),
        Metric::new(
            "journal.appends_per_fsync",
            tcp_counts.appends as f64 / tcp_counts.fsyncs.max(1) as f64,
            "ratio",
            tcp_counts.fsyncs,
        ),
        Metric::new(
            "journal.fsyncs_per_op",
            tcp_counts.fsyncs as f64 / ops,
            "ratio",
            tcp.attempted,
        ),
        Metric::new("journal.bytes_per_op", tcp_counts.bytes as f64 / ops, "B", tcp.attempted),
        Metric::new("journal.checkpoints", tcp_counts.snapshots as f64, "count", 1),
        Metric::new("journal.checkpoint_ms", checkpoint_ms, "ms", 3),
        Metric::new("server.jobs_held", jobs_held as f64, "count", 1),
        Metric::new("e2e.request_us", e2e_us, "us", tcp.ok),
        Metric::new("self.wire_us", wire_us, "us", n_traced),
        Metric::new("self.auth_us", auth_us, "us", n_traced),
        Metric::new("self.decide_us", decide_us, "us", n_traced),
        Metric::new("self.journal_us", journal_us, "us", n_traced),
        Metric::new("self.service_us", dispatch_us, "us", n_traced),
        Metric::new("unattributed_us", unattributed_us, "us", n_traced),
        Metric::new("trace.overhead_pct", overhead_pct, "%", n_traced + replayed.untraced),
    ];

    let spans_path = scratch.join(format!("spans-{}-seed{seed}.tsv", workload.name()));
    write_spans(&spans_path, &replayed.spans)?;
    let details = vec![
        ("tcp_throughput_ops_s".to_string(), json_num(throughput)),
        ("replay_requests".to_string(), replay_tally.attempted.to_string()),
        ("replay_traced_requests".to_string(), n_traced.to_string()),
        ("replay_traced_request_us".to_string(), json_num(traced_mean / 1_000.0)),
        ("replay_untraced_request_us".to_string(), json_num(untraced_mean / 1_000.0)),
        ("replay_decide_hit_ratio".to_string(), json_num(replay_hit)),
        ("replay_glue_us".to_string(), json_num(per_request_us(REQUEST))),
        ("replay_auth_replica_us".to_string(), json_num(per_request_us(AUTH_REPLICA))),
        ("identity_check_us".to_string(), json_num(attributed + unattributed_us - e2e_us)),
        ("spans_file".to_string(), crate::stats::json_str(&spans_path.display().to_string())),
        ("spans_recorded".to_string(), replayed.spans.len().to_string()),
    ];
    Ok(Report {
        metrics,
        attempted: tcp.attempted + warmup.attempted + replay_tally.attempted,
        failed: tcp.failed + warmup.failed + replay_tally.failed,
        mismatches: tcp.mismatches + warmup.mismatches + replay_tally.mismatches,
        first_mismatch: tcp
            .first_mismatch
            .or(warmup.first_mismatch)
            .or(replay_tally.first_mismatch),
        details,
    })
}
