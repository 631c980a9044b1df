//! End-to-end tests of the TCP front-end: real sockets, fragmented and
//! pipelined writes, oversized-frame defense, and clean shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_core::paper;
use gridauthz_credential::{
    pem, CertificateAuthority, Credential, GridMapEntry, GridMapFile, TrustStore,
};
use gridauthz_gram::wire::FrameAssembler;
use gridauthz_gram::{Frontend, FrontendConfig, GramServer, GramServerBuilder};
use gridauthz_telemetry::{labels, Stage};

fn grid() -> (Credential, Arc<GramServer>) {
    let clock = SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());
    let bo = ca.issue_identity(paper::BO_LIU_DN, SimDuration::from_hours(24)).unwrap();
    let mut gridmap = GridMapFile::new();
    gridmap.insert(GridMapEntry::new(paper::bo_liu(), vec!["bliu".into()]));
    // GT2 mode: the initiator may manage their own job, so STATUS over
    // the wire comes back as a REPORT.
    let server = GramServerBuilder::new("anl-cluster", &clock)
        .trust(trust)
        .gridmap(gridmap)
        .cluster(gridauthz_scheduler::Cluster::uniform(16, 8, 16_384))
        .build();
    (bo, Arc::new(server))
}

/// A client-side frame reader — the same assembler the server uses, so
/// pipelined responses split across reads reassemble correctly.
struct FrameReader {
    stream: TcpStream,
    assembler: FrameAssembler,
    buf: [u8; 4096],
}

impl FrameReader {
    fn new(stream: TcpStream) -> FrameReader {
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        FrameReader { stream, assembler: FrameAssembler::with_default_limit(), buf: [0; 4096] }
    }

    /// Blocks until one full response frame arrives.
    fn read_frame(&mut self) -> String {
        loop {
            if let Some(frame) =
                self.assembler.next_frame(|text| text.to_string()).expect("valid response stream")
            {
                return frame;
            }
            let n = self.stream.read(&mut self.buf).expect("read within timeout");
            assert!(n > 0, "connection closed mid-response");
            self.assembler.push(&self.buf[..n]);
        }
    }
}

/// The code header of a wire error response, if it is one.
fn error_code_of(response: &str) -> Option<&str> {
    response.strip_prefix("GRAM/1 ERROR\n")?.lines().find_map(|line| line.strip_prefix("code: "))
}

#[test]
fn fragmented_and_pipelined_requests_are_served_over_tcp() {
    let (bo, server) = grid();
    let frontend = Frontend::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        FrontendConfig { workers: 2, ..FrontendConfig::default() },
    )
    .unwrap();
    let addr = frontend.local_addr();
    let bo_pem = pem::encode_chain(bo.chain());

    let submit = format!(
        "{bo_pem}GRAM/1 SUBMIT\nrsl: &(executable = test1)(directory = /sandbox/test)(count = 1)\nwork-micros: 1000000\n\n"
    );
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = FrameReader::new(stream);

    // Fragmented write: the frame trickles in small chunks, forcing the
    // server to hold partial state across many reads.
    for chunk in submit.as_bytes().chunks(7) {
        reader.stream.write_all(chunk).unwrap();
        reader.stream.flush().unwrap();
        std::thread::sleep(Duration::from_micros(200));
    }
    let response = reader.read_frame();
    let contact = response
        .strip_prefix("GRAM/1 SUBMITTED\njob: ")
        .unwrap_or_else(|| panic!("unexpected response {response}"))
        .trim_end();
    let contact = contact.to_string();

    // Pipelined write: two STATUS requests in one TCP segment must come
    // back as two responses, in order.
    let status = format!("{bo_pem}GRAM/1 STATUS\njob: {contact}\n\n");
    let double = format!("{status}{status}");
    reader.stream.write_all(double.as_bytes()).unwrap();
    for _ in 0..2 {
        let response = reader.read_frame();
        assert!(response.starts_with("GRAM/1 REPORT\n"), "unexpected response {response}");
        assert!(response.contains("\nowner: ") && response.contains("\nstate: "), "{response}");
    }

    // The repeated chain bytes were served from the auth cache.
    let stats = server.auth_cache_stats();
    assert!(stats.hits >= 2, "repeat requests should hit the auth cache: {stats:?}");

    drop(reader);
    let worker_stats = frontend.stop();
    assert_eq!(worker_stats.len(), 2);
    assert_eq!(worker_stats.iter().map(|s| s.connections).sum::<u64>(), 1);
    assert_eq!(worker_stats.iter().map(|s| s.frames).sum::<u64>(), 3);
    assert!(worker_stats.iter().all(|s| s.writes <= s.frames), "{worker_stats:?}");
}

#[test]
fn oversized_frames_are_refused_with_a_typed_error_and_the_stream_resynchronizes() {
    let (bo, server) = grid();
    let frontend = Frontend::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        FrontendConfig { workers: 1, max_frame_bytes: 1024, ..FrontendConfig::default() },
    )
    .unwrap();

    let stream = TcpStream::connect(frontend.local_addr()).unwrap();
    let mut reader = FrameReader::new(stream);
    // 4 KiB without a frame terminator: the server answers with a typed
    // OVERSIZED_FRAME error naming the oversize — once, not per read —
    // and discards instead of buffering without bound. The connection
    // stays open (the error budget governs how many refusals it gets).
    reader.stream.write_all(&[b'x'; 4096]).unwrap();
    let response = reader.read_frame();
    assert_eq!(error_code_of(&response), Some("OVERSIZED_FRAME"), "{response}");
    assert!(response.contains("oversized frame"), "{response}");

    // Finishing the oversized frame resynchronizes the stream: a
    // well-formed request pipelined behind the delimiter is served.
    let bo_pem = pem::encode_chain(bo.chain());
    let probe = format!("\n\n{bo_pem}GRAM/1 STATUS\njob: gram://resync/1\n\n");
    reader.stream.write_all(probe.as_bytes()).unwrap();
    let response = reader.read_frame();
    assert_eq!(error_code_of(&response), Some("UNKNOWN_JOB"), "{response}");
    assert!(response.contains("gram://resync/1"), "{response}");

    drop(reader);
    let worker_stats = frontend.stop();
    assert_eq!(worker_stats.iter().map(|s| s.frames).sum::<u64>(), 2);
}

#[test]
fn exhausting_the_error_budget_closes_the_connection() {
    let (_bo, server) = grid();
    let frontend = Frontend::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        FrontendConfig { workers: 1, error_budget: 2, ..FrontendConfig::default() },
    )
    .unwrap();

    let stream = TcpStream::connect(frontend.local_addr()).unwrap();
    let mut reader = FrameReader::new(stream);
    // Each malformed frame draws its own typed answer...
    reader.stream.write_all(b"junk without a request line\n\nmore junk\n\n").unwrap();
    for _ in 0..2 {
        let response = reader.read_frame();
        assert_eq!(error_code_of(&response), Some("BAD_REQUEST"), "{response}");
    }
    // ...and the second refusal exhausts the budget: the connection is
    // closed and the exhaustion counted.
    let mut rest = Vec::new();
    let n = reader.stream.read_to_end(&mut rest).unwrap();
    assert_eq!(n, 0, "connection must close; got {:?}", String::from_utf8_lossy(&rest));
    assert!(
        server.telemetry().counter(Stage::Admission, labels::ERROR_BUDGET) >= 1,
        "error-budget exhaustion must be counted"
    );

    let worker_stats = frontend.stop();
    assert_eq!(worker_stats.iter().map(|s| s.frames).sum::<u64>(), 2);
}

#[test]
fn a_window_closed_for_its_error_budget_still_gets_every_earlier_answer_in_order() {
    let (bo, server) = grid();
    let budget = 3;
    let frontend = Frontend::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        FrontendConfig { workers: 1, error_budget: budget, ..FrontendConfig::default() },
    )
    .unwrap();
    let bo_pem = pem::encode_chain(bo.chain());
    let contact = server
        .submit(
            bo.chain(),
            "&(executable = test1)(directory = /sandbox/test)(count = 1)",
            None,
            SimDuration::from_mins(5),
        )
        .unwrap();

    // One write: N valid STATUS frames, then exactly enough junk frames
    // to exhaust the error budget.
    let n = 6;
    let mut window = format!("{bo_pem}GRAM/1 STATUS\njob: {}\n\n", contact.as_str()).repeat(n);
    for i in 0..budget {
        window.push_str(&format!("junk frame {i}\n\n"));
    }
    let stream = TcpStream::connect(frontend.local_addr()).unwrap();
    let mut reader = FrameReader::new(stream);
    reader.stream.write_all(window.as_bytes()).unwrap();

    // Every answer arrives, in order, before the close.
    for i in 0..n {
        let response = reader.read_frame();
        assert!(response.starts_with("GRAM/1 REPORT\n"), "answer {i}: {response}");
        assert!(response.contains(contact.as_str()), "answer {i}: {response}");
    }
    for i in 0..budget {
        let response = reader.read_frame();
        assert_eq!(error_code_of(&response), Some("BAD_REQUEST"), "refusal {i}: {response}");
    }
    let mut rest = Vec::new();
    let read = reader.stream.read_to_end(&mut rest).unwrap();
    assert_eq!(read, 0, "connection must close; got {:?}", String::from_utf8_lossy(&rest));
    assert_eq!(server.telemetry().counter(Stage::Admission, labels::ERROR_BUDGET), 1);

    drop(reader);
    let worker_stats = frontend.stop();
    let frames = worker_stats.iter().map(|s| s.frames).sum::<u64>();
    let writes = worker_stats.iter().map(|s| s.writes).sum::<u64>();
    assert_eq!(frames, (n + budget as usize) as u64);
    assert!(writes >= 1 && writes <= frames, "writes {writes} vs frames {frames}");
}

#[test]
fn stop_joins_all_threads_and_drains_cleanly() {
    let (bo, server) = grid();
    let frontend =
        Frontend::bind(Arc::clone(&server), "127.0.0.1:0", FrontendConfig::default()).unwrap();
    let addr = frontend.local_addr();
    let bo_pem = pem::encode_chain(bo.chain());

    // Several short-lived connections, each one request.
    for _ in 0..4 {
        let submit = format!(
            "{bo_pem}GRAM/1 SUBMIT\nrsl: &(executable = test1)(directory = /sandbox/test)(count = 1)\nwork-micros: 1000\n\n"
        );
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = FrameReader::new(stream);
        reader.stream.write_all(submit.as_bytes()).unwrap();
        assert!(reader.read_frame().starts_with("GRAM/1 SUBMITTED\n"));
    }
    assert!(frontend.connections_accepted() >= 4);

    let worker_stats = frontend.stop();
    assert_eq!(worker_stats.iter().map(|s| s.connections).sum::<u64>(), 4);
    assert_eq!(worker_stats.iter().map(|s| s.frames).sum::<u64>(), 4);

    // A second stop cycle of a fresh front-end on the same server works
    // (nothing about shutdown poisons shared state).
    let frontend =
        Frontend::bind(Arc::clone(&server), "127.0.0.1:0", FrontendConfig::default()).unwrap();
    assert!(frontend.stop().iter().all(|s| *s == Default::default()));
}

/// Reads answers until the server closes the connection, failing if any
/// bytes arrive after the last expected frame.
fn assert_closed(reader: &mut FrameReader) {
    let mut rest = Vec::new();
    let n = reader.stream.read_to_end(&mut rest).unwrap();
    assert_eq!(n, 0, "connection must close; got {:?}", String::from_utf8_lossy(&rest));
}

#[test]
fn malformed_admission_headers_are_refused_and_spend_the_error_budget() {
    let (bo, server) = grid();
    let frontend = Frontend::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        FrontendConfig { workers: 1, error_budget: 2, ..FrontendConfig::default() },
    )
    .unwrap();
    let bo_pem = pem::encode_chain(bo.chain());
    let contact = server
        .submit(bo.chain(), "&(executable = test1)(count = 1)", None, SimDuration::from_mins(5))
        .unwrap();

    let stream = TcpStream::connect(frontend.local_addr()).unwrap();
    let mut reader = FrameReader::new(stream);
    for header in ["class: realtime", "budget-micros: soon"] {
        let frame = format!("{bo_pem}GRAM/1 STATUS\njob: {}\n{header}\n\n", contact.as_str());
        reader.stream.write_all(frame.as_bytes()).unwrap();
        let response = reader.read_frame();
        assert_eq!(error_code_of(&response), Some("BAD_REQUEST"), "{header}: {response}");
    }
    // Both refusals spent the budget of two: the connection is closed.
    assert_closed(&mut reader);
    assert_eq!(server.telemetry().counter(Stage::Admission, labels::ERROR_BUDGET), 1);
    assert_eq!(server.telemetry().counter(Stage::FrameDecode, labels::BAD_REQUEST), 2);
    frontend.stop();
}

#[test]
fn a_zero_client_budget_is_answered_busy_and_the_same_frame_without_it_is_served() {
    let (bo, server) = grid();
    // A simulated front-end clock that never moves: only a zero budget
    // can expire.
    let frontend = Frontend::bind_with_clock(
        Arc::clone(&server),
        "127.0.0.1:0",
        FrontendConfig { workers: 1, ..FrontendConfig::default() },
        Arc::new(SimClock::new()),
    )
    .unwrap();
    let bo_pem = pem::encode_chain(bo.chain());
    let contact = server
        .submit(bo.chain(), "&(executable = test1)(count = 1)", None, SimDuration::from_mins(5))
        .unwrap();
    let status = format!("{bo_pem}GRAM/1 STATUS\njob: {}\n", contact.as_str());

    let stream = TcpStream::connect(frontend.local_addr()).unwrap();
    let mut reader = FrameReader::new(stream);
    reader.stream.write_all(format!("{status}budget-micros: 0\n\n").as_bytes()).unwrap();
    let response = reader.read_frame();
    assert!(response.starts_with("GRAM/1 BUSY\nretry-after-micros: "), "{response}");
    assert_eq!(server.telemetry().counter(Stage::Admission, labels::EXPIRED), 1);

    // The connection stays open, and the same frame without the header
    // is served on it.
    reader.stream.write_all(format!("{status}\n").as_bytes()).unwrap();
    let response = reader.read_frame();
    assert!(response.starts_with("GRAM/1 REPORT\n"), "{response}");
    assert!(response.contains(contact.as_str()), "{response}");
    assert_eq!(server.telemetry().counter(Stage::Admission, labels::EXPIRED), 1);

    drop(reader);
    frontend.stop();
}

#[test]
fn a_repeated_header_is_answered_with_its_own_code() {
    let (bo, server) = grid();
    let frontend =
        Frontend::bind(Arc::clone(&server), "127.0.0.1:0", FrontendConfig::default()).unwrap();
    let bo_pem = pem::encode_chain(bo.chain());

    let stream = TcpStream::connect(frontend.local_addr()).unwrap();
    let mut reader = FrameReader::new(stream);
    let frame = format!("{bo_pem}GRAM/1 CANCEL\njob: gram://a/jobs/1\njob: gram://a/jobs/2\n\n");
    reader.stream.write_all(frame.as_bytes()).unwrap();
    let response = reader.read_frame();
    assert_eq!(error_code_of(&response), Some("DUPLICATE_HEADER"), "{response}");
    assert!(response.contains("duplicate header"), "{response}");
    assert_eq!(server.telemetry().counter(Stage::FrameDecode, labels::DUPLICATE_HEADER), 1);

    drop(reader);
    frontend.stop();
}

#[test]
fn an_untrusted_chain_with_an_unknown_verb_is_refused_before_authentication() {
    let (_bo, server) = grid();
    // A chain from a CA the server does not trust.
    let clock = SimClock::new();
    let rogue_ca = CertificateAuthority::new_root("/O=Rogue/CN=CA", &clock).unwrap();
    let mallory =
        rogue_ca.issue_identity("/O=Rogue/CN=Mallory", SimDuration::from_hours(1)).unwrap();
    let frame = format!("{}GRAM/1 NOPE\njob: x\n\n", pem::encode_chain(mallory.chain()));

    let budget = 3;
    let frontend = Frontend::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        FrontendConfig { workers: 1, error_budget: budget, ..FrontendConfig::default() },
    )
    .unwrap();
    let stream = TcpStream::connect(frontend.local_addr()).unwrap();
    let mut reader = FrameReader::new(stream);
    reader.stream.write_all(frame.repeat(budget as usize).as_bytes()).unwrap();
    for i in 0..budget {
        let response = reader.read_frame();
        assert_eq!(error_code_of(&response), Some("BAD_REQUEST"), "refusal {i}: {response}");
        assert!(response.contains("unknown verb"), "refusal {i}: {response}");
    }
    assert_closed(&mut reader);
    assert_eq!(server.telemetry().counter(Stage::Admission, labels::ERROR_BUDGET), 1);
    // Parsing refused every frame, so no chain was ever checked.
    assert_eq!(server.telemetry().counter(Stage::Authenticate, labels::AUTHENTICATION), 0);
    assert_eq!(server.auth_cache_stats().misses, 0);
    frontend.stop();
}
