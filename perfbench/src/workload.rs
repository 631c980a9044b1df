//! The three workloads: their shapes, their seeded request generators,
//! and the expected-outcome oracle every response is checked against.
//!
//! A workload's load is split into two *lanes*, one per client
//! connection. Each lane owns a disjoint half of the members and only
//! ever touches jobs those members own, so the outcome of every request
//! is decided by the lane's own history and the two connections can run
//! concurrently without making any expectation racy.
//!
//! Generation is lagged by the window: request `i` of a session is
//! generated only after the response to request `i - window` has been
//! checked. Responses on one connection come back in order, so the
//! lane state a request is generated from — and therefore the request
//! itself — depends on the seed alone, whether the frames travel over
//! TCP or are replayed in-process.

use std::fmt::Write as _;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated `STATUS` polls of each member's own job.
    StatusHot,
    /// `SUBMIT` then `CANCEL` of the returned contact, on a file-backed
    /// journal.
    SubmitDurable,
    /// The paper's VO scenario: varied submits (some violating the VO
    /// requirements), status/signal/cancel by owners and by the VO
    /// admin, cross-member attempts, and grid-map churn.
    VoChurn,
}

/// Live jobs a `vo-churn` lane keeps submitted at most; a valid submit
/// drawn at the cap turns into a cancel, so live state stays bounded.
pub const POOL_CAP: usize = 32;

impl Workload {
    /// Every workload, in the order they are documented.
    pub const ALL: [Workload; 3] =
        [Workload::StatusHot, Workload::SubmitDurable, Workload::VoChurn];

    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StatusHot => "status-hot",
            Workload::SubmitDurable => "submit-durable",
            Workload::VoChurn => "vo-churn",
        }
    }

    /// Generated VO members (the testbed also holds the VO admin).
    pub fn members(self) -> usize {
        match self {
            Workload::StatusHot | Workload::SubmitDurable => 16,
            Workload::VoChurn => 512,
        }
    }

    /// Frames each connection keeps in flight. `submit-durable` needs
    /// the submit's reply before it can cancel, so its window is 1.
    pub fn window(self) -> usize {
        match self {
            Workload::StatusHot | Workload::VoChurn => 8,
            Workload::SubmitDurable => 1,
        }
    }

    /// Frames per client session (connect, send, close). Sessions stay
    /// far below the front-end's 2 s interactive connection budget.
    pub fn session_frames(self) -> usize {
        match self {
            Workload::StatusHot => 256,
            Workload::SubmitDurable => 64,
            Workload::VoChurn => 128,
        }
    }

    /// Sessions per lane in one round of an untraced run: about a second
    /// of work at the time the benchmark was written.
    pub fn round_sessions(self) -> u64 {
        match self {
            Workload::StatusHot => 160,
            Workload::SubmitDurable => 48,
            Workload::VoChurn => 200,
        }
    }

    /// Sessions per lane of each host-speed reference run (one before
    /// and one after every round): a quarter of the round's. The
    /// reference's throughput varies more from run to run than a
    /// round's does, so it gets a large share of the time.
    pub fn reference_sessions(self) -> u64 {
        self.round_sessions() / 4
    }

    /// Whether the server journals to a file-backed journal.
    pub fn durable(self) -> bool {
        self == Workload::SubmitDurable
    }

    /// Whether every member gets one live job during set-up.
    pub fn home_jobs(self) -> bool {
        self != Workload::SubmitDurable
    }

    /// A lane swaps in an unchanged grid-map after this many of its own
    /// requests (two lanes: about once per 1 000 requests overall).
    pub fn churn_every(self) -> Option<u64> {
        (self == Workload::VoChurn).then_some(2_000)
    }
}

/// The RSL of every member's set-up ("home") job.
pub const HOME_RSL: &str = "&(executable = TRANSP)(jobtag = NFC)(count = 1)";

/// Simulated work of every submitted job. The simulated clock never
/// advances during a run, so no job ever completes by itself.
pub const WORK_MICROS: u64 = 4 * 3600 * 1_000_000;

/// A small seeded generator (SplitMix64), owned by the benchmark so the
/// generated inputs never change with the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`, lane `lane`.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut rng = Rng(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane + 1));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Who sends a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Actor {
    /// The generated member with this global index.
    Member(usize),
    /// The testbed's VO administrator.
    Admin,
}

/// The protocol verb of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `GRAM/1 STATUS`.
    Status,
    /// `GRAM/1 SIGNAL`.
    Signal,
    /// `GRAM/1 SUBMIT`.
    Submit,
    /// `GRAM/1 CANCEL`.
    Cancel,
}

/// The answer the testbed policy must give.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `SUBMITTED` with a fresh contact (owned by the recorded member).
    Submitted {
        /// Global index of the submitting member.
        owner: usize,
    },
    /// `REPORT` for this job.
    Report {
        /// The job's contact.
        contact: String,
    },
    /// `DONE` (cancel or signal performed).
    Done,
    /// `ERROR` with code `AUTHORIZATION_DENIED`.
    Denied,
}

/// A generated request whose response has not been checked yet.
#[derive(Debug, Clone)]
pub struct Pending {
    /// The request's sender.
    pub actor: Actor,
    /// The request's verb.
    pub verb: Verb,
    /// What the response must be.
    pub expect: Expect,
    /// The lane swaps in an unchanged grid-map just before sending it.
    pub churn: bool,
}

/// How a response compared with its expectation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The expected answer.
    Ok,
    /// The server shed the request (`BUSY`).
    Busy,
    /// Any other answer: a correctness failure.
    Mismatch(String),
}

/// A job the lane submitted during the run and has not cancelled.
#[derive(Debug, Clone)]
struct PoolJob {
    contact: String,
    owner: usize,
}

/// One connection's share of a workload.
#[derive(Debug, Clone)]
pub struct Lane {
    workload: Workload,
    rng: Rng,
    /// Global indices of this lane's members.
    members: Vec<usize>,
    /// Home-job contact of every member, by global index (empty when
    /// the workload has none).
    home: Vec<String>,
    pool: Vec<PoolJob>,
    generated: u64,
}

impl Lane {
    /// Lane `lane` of `lanes` for `workload`, drawing from `seed`.
    /// `home[i]` is member `i`'s set-up job.
    pub fn new(workload: Workload, seed: u64, lane: usize, lanes: usize, home: &[String]) -> Lane {
        Lane {
            workload,
            rng: Rng::new(seed, lane as u64),
            members: (lane..workload.members()).step_by(lanes).collect(),
            home: home.to_vec(),
            pool: Vec::new(),
            generated: 0,
        }
    }

    /// Generates the next request into `frame` (PEM chain of the actor
    /// followed by the request and the blank line ending the frame).
    pub fn next(&mut self, pems: &Pems, frame: &mut Vec<u8>) -> Pending {
        frame.clear();
        self.generated += 1;
        let churn =
            self.workload.churn_every().is_some_and(|every| self.generated.is_multiple_of(every));
        let mut body = String::with_capacity(128);
        let (actor, verb, expect) = match self.workload {
            Workload::StatusHot => {
                let member = self.members[self.rng.below(self.members.len())];
                let contact = self.home[member].clone();
                write_status(&mut body, &contact);
                (Actor::Member(member), Verb::Status, Expect::Report { contact })
            }
            Workload::SubmitDurable => match self.pool.pop() {
                Some(job) => {
                    write_cancel(&mut body, &job.contact);
                    (Actor::Member(job.owner), Verb::Cancel, Expect::Done)
                }
                None => {
                    let member = self.members[self.rng.below(self.members.len())];
                    let count = 1 + self.rng.below(15);
                    write_submit(
                        &mut body,
                        &format!("&(executable = TRANSP)(jobtag = NFC)(count = {count})"),
                    );
                    (Actor::Member(member), Verb::Submit, Expect::Submitted { owner: member })
                }
            },
            Workload::VoChurn => self.next_vo(&mut body),
        };
        let pem = match actor {
            Actor::Member(i) => &pems.members[i],
            Actor::Admin => &pems.admin,
        };
        frame.extend_from_slice(pem.as_bytes());
        frame.extend_from_slice(body.as_bytes());
        frame.push(b'\n');
        Pending { actor, verb, expect, churn }
    }

    fn next_vo(&mut self, body: &mut String) -> (Actor, Verb, Expect) {
        let n = self.members.len();
        let draw = self.rng.below(100);
        let member = self.members[self.rng.below(n)];
        match draw {
            // Member submits: valid, missing jobtag, or count >= 16.
            0..=25 => {
                let kind = self.rng.below(100);
                if kind < 64 {
                    if self.pool.len() >= POOL_CAP {
                        return self.owner_cancel(body);
                    }
                    let count = 1 + self.rng.below(15);
                    write_submit(
                        body,
                        &format!("&(executable = TRANSP)(jobtag = NFC)(count = {count})"),
                    );
                    (Actor::Member(member), Verb::Submit, Expect::Submitted { owner: member })
                } else if kind < 82 {
                    let count = 1 + self.rng.below(15);
                    write_submit(body, &format!("&(executable = TRANSP)(count = {count})"));
                    (Actor::Member(member), Verb::Submit, Expect::Denied)
                } else {
                    let count = 16 + self.rng.below(17);
                    write_submit(
                        body,
                        &format!("&(executable = TRANSP)(jobtag = NFC)(count = {count})"),
                    );
                    (Actor::Member(member), Verb::Submit, Expect::Denied)
                }
            }
            // Owner cancels one of the lane's submitted jobs.
            26..=36 => self.owner_cancel(body),
            // Owner polls its own job.
            37..=58 => {
                let (owner, contact) = self.own_target(member);
                write_status(body, &contact);
                (Actor::Member(owner), Verb::Status, Expect::Report { contact })
            }
            // Owner re-prioritizes its own job.
            59..=68 => {
                let (owner, contact) = self.own_target(member);
                let priority = self.rng.below(10);
                write_signal(body, &contact, priority);
                (Actor::Member(owner), Verb::Signal, Expect::Done)
            }
            // The VO admin manages members' NFC jobs.
            69..=80 => match self.rng.below(3) {
                0 => {
                    let (_, contact) = self.own_target(member);
                    write_status(body, &contact);
                    (Actor::Admin, Verb::Status, Expect::Report { contact })
                }
                1 => {
                    let (_, contact) = self.own_target(member);
                    let priority = self.rng.below(10);
                    write_signal(body, &contact, priority);
                    (Actor::Admin, Verb::Signal, Expect::Done)
                }
                _ if self.pool.is_empty() => {
                    let contact = self.home[member].clone();
                    write_status(body, &contact);
                    (Actor::Admin, Verb::Status, Expect::Report { contact })
                }
                _ => {
                    let job = self.pool.swap_remove(self.rng.below(self.pool.len()));
                    write_cancel(body, &job.contact);
                    (Actor::Admin, Verb::Cancel, Expect::Done)
                }
            },
            // A member tries to cancel another member's job.
            81..=90 => {
                let other = self.other_member(member);
                write_cancel(body, &self.home[other]);
                (Actor::Member(member), Verb::Cancel, Expect::Denied)
            }
            // A member tries to read another member's job.
            _ => {
                let other = self.other_member(member);
                write_status(body, &self.home[other]);
                (Actor::Member(member), Verb::Status, Expect::Denied)
            }
        }
    }

    /// The owner of a random lane job cancels it; with no submitted job
    /// live, the lane's first member polls its home job instead.
    fn owner_cancel(&mut self, body: &mut String) -> (Actor, Verb, Expect) {
        if self.pool.is_empty() {
            let member = self.members[0];
            let contact = self.home[member].clone();
            write_status(body, &contact);
            return (Actor::Member(member), Verb::Status, Expect::Report { contact });
        }
        let job = self.pool.swap_remove(self.rng.below(self.pool.len()));
        write_cancel(body, &job.contact);
        (Actor::Member(job.owner), Verb::Cancel, Expect::Done)
    }

    /// A live job and its owner: half the time one of the lane's
    /// submitted jobs, otherwise `member`'s home job.
    fn own_target(&mut self, member: usize) -> (usize, String) {
        if !self.pool.is_empty() && self.rng.below(2) == 0 {
            let job = &self.pool[self.rng.below(self.pool.len())];
            (job.owner, job.contact.clone())
        } else {
            (member, self.home[member].clone())
        }
    }

    /// A lane member other than `member`.
    fn other_member(&mut self, member: usize) -> usize {
        let n = self.members.len();
        let at = self.members.iter().position(|&m| m == member).expect("lane member");
        self.members[(at + 1 + self.rng.below(n - 1)) % n]
    }

    /// Checks `response` (one frame, without its blank line) against
    /// `pending`'s expectation and records a submitted job.
    pub fn complete(&mut self, pending: Pending, response: &str) -> Outcome {
        if response.starts_with("GRAM/1 BUSY\n") {
            return Outcome::Busy;
        }
        let ok = match &pending.expect {
            Expect::Submitted { owner } => {
                match response
                    .strip_prefix("GRAM/1 SUBMITTED\njob: ")
                    .and_then(|r| r.split_once('\n'))
                {
                    Some((contact, _)) => {
                        self.pool.push(PoolJob { contact: contact.to_string(), owner: *owner });
                        true
                    }
                    None => false,
                }
            }
            Expect::Report { contact } => response
                .strip_prefix("GRAM/1 REPORT\njob: ")
                .and_then(|r| r.strip_prefix(contact.as_str()))
                .is_some_and(|r| r.starts_with('\n')),
            Expect::Done => response == "GRAM/1 DONE\n",
            Expect::Denied => response.starts_with("GRAM/1 ERROR\ncode: AUTHORIZATION_DENIED\n"),
        };
        if ok {
            Outcome::Ok
        } else {
            Outcome::Mismatch(format!(
                "{:?} {:?}: expected {:?}, got {:?}",
                pending.actor, pending.verb, pending.expect, response
            ))
        }
    }
}

/// The PEM-armored chain of every identity a workload sends as.
#[derive(Debug, Clone)]
pub struct Pems {
    /// By global member index.
    pub members: Vec<String>,
    /// The VO administrator's chain.
    pub admin: String,
}

fn write_status(body: &mut String, contact: &str) {
    let _ = writeln!(body, "GRAM/1 STATUS\njob: {contact}");
}

fn write_cancel(body: &mut String, contact: &str) {
    let _ = writeln!(body, "GRAM/1 CANCEL\njob: {contact}");
}

fn write_signal(body: &mut String, contact: &str, priority: usize) {
    let _ = writeln!(body, "GRAM/1 SIGNAL\njob: {contact}\nsignal: priority {priority}");
}

fn write_submit(body: &mut String, rsl: &str) {
    let _ = writeln!(body, "GRAM/1 SUBMIT\nrsl: {rsl}\nwork-micros: {WORK_MICROS}");
}
