//! The expected-outcome oracle against an in-process server.

use std::collections::VecDeque;
use std::io;

use gridauthz_gram::wire::FrameAssembler;
use gridauthz_gram::GramServer;

use crate::load::{churn, run_session, Tally, Transport};
use crate::site::Site;
use crate::workload::{Actor, Expect, Lane, Outcome, Pending, Verb, Workload};

/// Frames served in-process through the front-end's framing.
struct Direct<'a> {
    server: &'a GramServer,
    queue: VecDeque<Vec<u8>>,
    assembler: FrameAssembler,
    response: String,
}

impl Transport for Direct<'_> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.queue.push_back(frame.to_vec());
        Ok(())
    }

    fn recv(&mut self) -> io::Result<&str> {
        let frame = self.queue.pop_front().expect("a frame was sent");
        self.response.clear();
        self.assembler.push(&frame);
        let (server, response) = (self.server, &mut self.response);
        let served = self.assembler.next_frame(|text| server.handle_wire_pem_into(text, response));
        assert!(matches!(served, Ok(Some(_))), "generated frames are complete");
        Ok(&self.response)
    }
}

fn site(workload: Workload) -> Site {
    let scratch = crate::out_dir();
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    Site::build(workload, &scratch, false).expect("site builds")
}

/// Every generated request of every workload gets the answer the oracle
/// predicted from the testbed policy — over the real session loop
/// (window-lagged generation) and request by request, where the test
/// also checks that the oracle predicted every kind of answer.
#[test]
fn oracle_agrees_with_an_in_process_server() {
    for workload in Workload::ALL {
        let site = site(workload);
        for seed in [1, 2] {
            let mut tally = Tally::default();
            let mut transport = Direct {
                server: &site.server,
                queue: VecDeque::new(),
                assembler: FrameAssembler::with_default_limit(),
                response: String::new(),
            };
            let mut frame = Vec::new();
            for lane in 0..2 {
                let mut lane = Lane::new(workload, seed, lane, 2, &site.home);
                for _ in 0..12 {
                    run_session(
                        workload,
                        &mut lane,
                        &site.pems,
                        &mut transport,
                        &mut || churn(&site.server, &site.gridmap),
                        &mut tally,
                        &mut frame,
                    )
                    .expect("in-process transport");
                }
            }
            assert_eq!(tally.mismatches, 0, "{}: {:?}", workload.name(), tally.first_mismatch);
            assert_eq!(tally.failed, 0, "{}", workload.name());
            assert_eq!(tally.ok, tally.attempted, "{}", workload.name());
        }

        let mut lane = Lane::new(workload, 3, 0, 2, &site.home);
        let mut frame = Vec::new();
        let mut kinds = [0u32; 4];
        let mut churned = 0;
        for _ in 0..5_000 {
            let pending = lane.next(&site.pems, &mut frame);
            if pending.churn {
                churned += 1;
                churn(&site.server, &site.gridmap);
            }
            kinds[match pending.expect {
                Expect::Submitted { .. } => 0,
                Expect::Report { .. } => 1,
                Expect::Done => 2,
                Expect::Denied => 3,
            }] += 1;
            let response = site.server.handle_wire_pem(std::str::from_utf8(&frame).expect("UTF-8"));
            assert_eq!(lane.complete(pending, &response), Outcome::Ok, "{}", workload.name());
        }
        let expected: &[usize] = match workload {
            Workload::StatusHot => &[1],
            Workload::SubmitDurable => &[0, 2],
            Workload::VoChurn => &[0, 1, 2, 3],
        };
        for &kind in expected {
            assert!(kinds[kind] > 0, "{}: answer kind {kind} never predicted", workload.name());
        }
        assert_eq!(churned > 0, workload == Workload::VoChurn, "{}", workload.name());
    }
}

/// A response other than the predicted one fails the run — including a
/// permit where the policy must deny.
#[test]
fn oracle_rejects_unexpected_answers() {
    let mut lane = Lane::new(Workload::StatusHot, 1, 0, 2, &vec!["job-a".to_string(); 16]);
    let pending =
        |expect| Pending { actor: Actor::Member(0), verb: Verb::Cancel, expect, churn: false };
    let done = "GRAM/1 DONE\n";
    let denied = "GRAM/1 ERROR\ncode: AUTHORIZATION_DENIED\nmessage: no\n";
    assert!(matches!(lane.complete(pending(Expect::Denied), done), Outcome::Mismatch(_)));
    assert!(matches!(lane.complete(pending(Expect::Done), denied), Outcome::Mismatch(_)));
    assert_eq!(lane.complete(pending(Expect::Denied), denied), Outcome::Ok);
    let report = "GRAM/1 REPORT\njob: job-ab\nowner: x\n";
    let expect = Expect::Report { contact: "job-a".to_string() };
    assert!(matches!(lane.complete(pending(expect), report), Outcome::Mismatch(_)));
    let busy = "GRAM/1 BUSY\nretry-after-micros: 10\n";
    assert_eq!(lane.complete(pending(Expect::Done), busy), Outcome::Busy);
}

/// The seed alone decides the requests.
#[test]
fn same_seed_same_requests() {
    let site = site(Workload::StatusHot);
    let frames = |seed| {
        let mut lane = Lane::new(Workload::StatusHot, seed, 1, 2, &site.home);
        let mut frame = Vec::new();
        (0..200)
            .map(|_| {
                lane.next(&site.pems, &mut frame);
                frame.clone()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(frames(7), frames(7));
    assert_ne!(frames(7), frames(8));
}

/// The host-speed reference answers every frame of every workload's
/// shape and removes the file its durable variant syncs to.
#[test]
fn reference_service_runs_every_shape() {
    let scratch = crate::out_dir().join("reference-test");
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    for workload in Workload::ALL {
        let frame = b"-----BEGIN CERTIFICATE-----\nAAAA\nGRAM/1 STATUS\njob: x\n\n";
        let ops_s =
            crate::calib::reference_ops_s(workload, frame, 2, 2, &scratch).expect("reference run");
        assert!(ops_s.is_finite() && ops_s > 0.0, "{}: {ops_s}", workload.name());
    }
    let left = std::fs::read_dir(&scratch).expect("scratch directory").count();
    std::fs::remove_dir_all(&scratch).expect("scratch removed");
    assert_eq!(left, 0, "reference left files behind");
}
