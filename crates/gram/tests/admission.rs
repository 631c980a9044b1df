//! Request-lifecycle integration tests: bounded admission under
//! overload, shutdown draining, and the trace id that joins the
//! front-end, engine, callout and audit views of one request.

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridauthz_clock::{SimClock, SimDuration, WallClock};
use gridauthz_core::{
    paper, AdmissionClass, CombinedPdp, Combiner, PdpCallout, PolicyOrigin, PolicySource,
    RequestContext,
};
use gridauthz_credential::{
    pem, CertificateAuthority, Credential, GridMapEntry, GridMapFile, TrustStore,
};
use gridauthz_gram::wire::FrameAssembler;
use gridauthz_gram::{Frontend, FrontendConfig, GramServer, GramServerBuilder, WireClient};
use gridauthz_telemetry::{Gauge, Stage};

const SUBMIT_RSL: &str =
    "&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 2)";

fn grid(extended: bool) -> (SimClock, Credential, Arc<GramServer>) {
    let clock = SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());
    let bo = ca.issue_identity(paper::BO_LIU_DN, SimDuration::from_hours(24)).unwrap();
    let mut gridmap = GridMapFile::new();
    gridmap.insert(GridMapEntry::new(paper::bo_liu(), vec!["bliu".into()]));
    let mut builder = GramServerBuilder::new("anl-cluster", &clock)
        .trust(trust)
        .gridmap(gridmap)
        .cluster(gridauthz_scheduler::Cluster::uniform(64, 8, 16_384));
    if extended {
        let vo = PolicySource::new(
            "fusion-vo",
            PolicyOrigin::VirtualOrganization("fusion".into()),
            paper::figure3_policy(),
        );
        let pdp = CombinedPdp::new(vec![vo], Combiner::DenyOverrides);
        builder = builder.callouts(vec![Arc::new(PdpCallout::new("fig3", pdp))]);
    }
    (clock, bo, Arc::new(builder.build()))
}

fn submit_frame(credential: &Credential) -> String {
    format!(
        "{}GRAM/1 SUBMIT\nrsl: {SUBMIT_RSL}\nwork-micros: 1000\n\n",
        pem::encode_chain(credential.chain())
    )
}

/// More clients than `workers + queue bounds` can hold: every client
/// gets a prompt answer (served or `BUSY`), the shed counter is
/// nonzero, the queue-depth gauges never read above their bounds, and
/// no client stalls.
#[test]
fn overload_sheds_with_busy_answers_and_no_stalls() {
    let (_clock, bo, server) = grid(false);
    let config = FrontendConfig {
        workers: 2,
        queue_bound_interactive: 1,
        queue_bound_batch: 1,
        ..FrontendConfig::default()
    };
    let frontend = Frontend::bind(Arc::clone(&server), "127.0.0.1:0", config).unwrap();
    let addr = frontend.local_addr();
    let frame = submit_frame(&bo);

    const CLIENTS: usize = 24;
    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let frame = frame.clone();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr).ok()?;
                let ctx = RequestContext::with_budget(
                    Arc::new(WallClock::new()),
                    AdmissionClass::Interactive,
                    SimDuration::from_secs(10),
                );
                // A reset from a shed-then-closed socket counts as a
                // refusal, same as reading the BUSY frame itself.
                client.request(&ctx, &frame).ok()
            })
        })
        .collect();

    // Sample the queue-depth gauges while the storm runs: the bound is
    // structural, so no sample may ever read above it.
    let telemetry = Arc::clone(server.telemetry());
    for _ in 0..50 {
        assert!(telemetry.gauge(Gauge::QueueDepthInteractive) <= 1, "interactive lane over bound");
        assert!(telemetry.gauge(Gauge::QueueDepthBatch) <= 1, "batch lane over bound");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut served = 0u64;
    let mut busy = 0u64;
    let mut reset = 0u64;
    for client in clients {
        match client.join().expect("client thread must not panic") {
            Some(response) if response.starts_with("GRAM/1 SUBMITTED\n") => served += 1,
            Some(response) if response.starts_with("GRAM/1 BUSY\n") => {
                assert!(response.contains("retry-after-micros: "), "{response}");
                busy += 1;
            }
            Some(response) => panic!("unexpected response {response}"),
            None => reset += 1,
        }
    }
    let elapsed = started.elapsed();
    // Zero stalls: every client resolved well inside its 10s budget.
    assert!(elapsed < Duration::from_secs(10), "overload run stalled: {elapsed:?}");
    assert_eq!(served + busy + reset, CLIENTS as u64);
    assert!(served > 0, "some requests must be admitted and served");
    assert!(
        frontend.connections_shed() > 0,
        "24 clients against 2 workers and 2 queue slots must shed (served={served} busy={busy} reset={reset})"
    );
    let snapshot = server.telemetry_snapshot();
    assert!(snapshot.total("shed") > 0, "admission sheds must be visible in telemetry");

    frontend.stop();
    assert!(telemetry.gauge(Gauge::QueueDepthInteractive) == 0);
    assert!(telemetry.gauge(Gauge::QueueDepthBatch) == 0);
}

/// Connections still queued when the front-end stops get a well-formed
/// shutdown `BUSY` answer, not a silently dropped socket.
#[test]
fn stop_answers_queued_connections_with_shutdown_busy() {
    let (_clock, bo, server) = grid(false);
    let config = FrontendConfig { workers: 1, ..FrontendConfig::default() };
    let frontend = Frontend::bind(Arc::clone(&server), "127.0.0.1:0", config).unwrap();
    let addr = frontend.local_addr();

    // Occupy the lone worker with a connection that never completes a
    // request, so everything behind it stays queued.
    let parked = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let frame = submit_frame(&bo);
    let queued: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).unwrap();
            std::io::Write::write_all(&mut stream, frame.as_bytes()).unwrap();
            stream
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));

    let stats = frontend.stop();
    assert_eq!(stats.iter().map(|s| s.connections).sum::<u64>(), 1, "only the parked connection");
    assert_eq!(stats.iter().map(|s| s.frames).sum::<u64>(), 0);

    for stream in queued {
        let mut reader = stream;
        reader.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut assembler = FrameAssembler::with_default_limit();
        let mut buf = [0u8; 1024];
        let response = loop {
            if let Some(frame) = assembler.next_frame(|text| text.to_string()).unwrap() {
                break frame;
            }
            let n = reader.read(&mut buf).expect("queued connection must be answered");
            assert!(n > 0, "queued connection closed without a shutdown answer");
            assembler.push(&buf[..n]);
        };
        assert!(response.starts_with("GRAM/1 BUSY\n"), "{response}");
        assert!(response.contains("retry-after-micros: "), "{response}");
    }
    let snapshot = server.telemetry_snapshot();
    assert!(snapshot.total("shutdown") >= 3, "shutdown drains must be visible in telemetry");
    drop(parked);
}

/// One trace id joins every layer's view of a request: the admission
/// span recorded from the front-end queue wait, the engine and callout
/// spans in the decision trace, and the audit record — all carry the id
/// minted when the context was built.
#[test]
fn one_trace_id_joins_admission_engine_callout_and_audit() {
    let (clock, bo, server) = grid(true);

    // In-process with a deterministic queue wait: build the context the
    // way the front-end does, then drive the same wire entry point.
    let mut ctx = server.request_context(AdmissionClass::Interactive);
    ctx.note_queue_wait(SimDuration::from_millis(3));
    let id = ctx.trace_id();
    assert_ne!(id, 0, "request_context must mint a trace id");

    let mut response = String::new();
    let label = server.handle_wire_pem_within(&ctx, &submit_frame(&bo), &mut response);
    assert_eq!(label, "permit", "{response}");
    assert!(response.starts_with("GRAM/1 SUBMITTED\n"), "{response}");

    let trace = server
        .telemetry()
        .recent_traces()
        .into_iter()
        .find(|t| t.id() == id)
        .expect("the decision trace must carry the context's id");
    let stages: Vec<Stage> = trace.spans().iter().map(|s| s.stage).collect();
    assert!(stages.contains(&Stage::Admission), "queue wait must appear as an admission span");
    assert!(stages.contains(&Stage::GridMap), "spans: {stages:?}");
    assert!(stages.contains(&Stage::Callout), "extended mode must record the callout: {stages:?}");
    let admission = trace.spans().iter().find(|s| s.stage == Stage::Admission).unwrap();
    assert_eq!(admission.label, "permit");
    assert_eq!(admission.nanos, 3_000_000, "the admission span is the measured queue wait");

    let audit = server.audit_snapshot();
    let record = audit.last().expect("the submit must be audited");
    assert_eq!(record.trace_id, Some(id), "audit must join the same trace id");
    assert!(record.outcome.is_permitted());

    // Over TCP the id is minted by the front-end at frame-assembly time
    // and must make the same journey into the audit trail.
    let frontend = Frontend::bind_with_clock(
        Arc::clone(&server),
        "127.0.0.1:0",
        FrontendConfig::default(),
        Arc::new(clock.clone()),
    )
    .unwrap();
    let mut client = WireClient::connect(frontend.local_addr()).unwrap();
    let response = client.request(&RequestContext::unbounded(), &submit_frame(&bo)).unwrap();
    assert!(response.starts_with("GRAM/1 SUBMITTED\n"), "{response}");
    frontend.stop();

    let audit = server.audit_snapshot();
    let record = audit.last().unwrap();
    let tcp_id = record.trace_id.expect("wire submits must carry a trace id");
    assert_ne!(tcp_id, 0);
    assert_ne!(tcp_id, id, "each request gets its own id");
    assert!(
        server.telemetry().recent_traces().iter().any(|t| t.id() == tcp_id),
        "the front-end-minted id must match a finished decision trace"
    );
}
