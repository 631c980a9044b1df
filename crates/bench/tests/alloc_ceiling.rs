//! Allocation ceilings of the warm served path.
//!
//! Installs [`CountingAllocator`] as this test binary's global allocator,
//! warms the authentication and decision caches, and counts the heap
//! allocations one warm `GramServer::handle_wire_pem_into` call makes
//! for a `STATUS` poll, a `SUBMIT` and the `CANCEL` of the job that
//! submit started. Allocation counts are deterministic, so the ceilings
//! are exact: a change that adds an allocation to a warm path fails here
//! instead of showing up as a drift in a benchmark report. A change that
//! removes one should lower the matching ceiling.
//!
//! The fixture mirrors the traced `status-hot` run of `perfbench`
//! (whose `alloc.status` / `alloc.submit` / `alloc.cancel` metrics count
//! the same calls): a 16-member VO testbed on a 128 × 16-CPU cluster
//! where every member holds one running home job.

use gridauthz_bench::CountingAllocator;
use gridauthz_clock::SimDuration;
use gridauthz_credential::pem;
use gridauthz_sim::{Testbed, TestbedBuilder};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// Allocations of one warm `STATUS` poll of the caller's own job.
const STATUS_CEILING: u64 = 6;
/// Median allocations of one warm, permitted `SUBMIT`.
const SUBMIT_CEILING: u64 = 96;
/// Allocations of one warm `CANCEL` of the caller's own job.
const CANCEL_CEILING: u64 = 5;

/// Simulated work of every submitted job: long enough that none
/// completes while the test runs.
const WORK_MICROS: u64 = 4 * 3600 * 1_000_000;

/// Warm calls measured per verb.
const CALLS: usize = 64;

#[test]
fn warm_status_submit_and_cancel_stay_under_their_allocation_ceilings() {
    let Testbed { server, members, .. } =
        TestbedBuilder::new().members(16).cluster(128, 16).build();
    let work = SimDuration::from_micros(WORK_MICROS);
    let home = server
        .submit(members[0].chain(), "&(executable = TRANSP)(jobtag = NFC)(count = 1)", None, work)
        .expect("home job admitted");
    let pem = pem::encode_chain(members[0].chain());
    let status = format!("{pem}GRAM/1 STATUS\njob: {}\n\n", home.as_str());
    let submit = format!(
        "{pem}GRAM/1 SUBMIT\nrsl: &(executable = TRANSP)(jobtag = NFC)(count = 2)\nwork-micros: {WORK_MICROS}\n\n"
    );

    let mut out = String::with_capacity(1024);
    let mut serve = |frame: &str| -> (u64, String) {
        out.clear();
        let before = ALLOCATOR.allocations();
        server.handle_wire_pem_into(frame, &mut out);
        (ALLOCATOR.allocations() - before, out.clone())
    };
    let cancel = |response: &str| -> String {
        let contact = response.lines().find_map(|line| line.strip_prefix("job: "));
        format!("{pem}GRAM/1 CANCEL\njob: {}\n\n", contact.expect("SUBMITTED names the job"))
    };
    // Warm-up: the first calls fill the authentication cache and the
    // decision cache.
    for _ in 0..4 {
        serve(&status);
        let (_, response) = serve(&submit);
        serve(&cancel(&response));
    }

    let mut status_allocs = Vec::with_capacity(CALLS);
    let mut submit_allocs = Vec::with_capacity(CALLS);
    let mut cancel_allocs = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let (allocs, response) = serve(&status);
        assert!(response.starts_with("GRAM/1 REPORT\n"), "{response}");
        status_allocs.push(allocs);
        let (allocs, response) = serve(&submit);
        assert!(response.starts_with("GRAM/1 SUBMITTED\n"), "{response}");
        submit_allocs.push(allocs);
        let (allocs, response) = serve(&cancel(&response));
        assert!(response.starts_with("GRAM/1 DONE\n"), "{response}");
        cancel_allocs.push(allocs);
    }
    // A status poll allocates the same amount every time.
    assert!(
        status_allocs.iter().all(|&n| n <= STATUS_CEILING),
        "warm STATUS allocations {status_allocs:?} exceed the ceiling of {STATUS_CEILING}"
    );
    // A cancel never grows a table, so it too is held at its maximum.
    assert!(
        cancel_allocs.iter().all(|&n| n <= CANCEL_CEILING),
        "warm CANCEL allocations {cancel_allocs:?} exceed the ceiling of {CANCEL_CEILING}"
    );
    // A submit also pays, now and then, for the amortized growth of the
    // tables that gain an entry per job, so its count is held at the median
    // (the statistic `perfbench` reports as `alloc.submit`).
    submit_allocs.sort_unstable();
    let median = submit_allocs[CALLS / 2];
    assert!(
        median <= SUBMIT_CEILING,
        "warm SUBMIT allocations: median {median} exceeds the ceiling of {SUBMIT_CEILING} \
         (sorted counts {submit_allocs:?})"
    );
}
