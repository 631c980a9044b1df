//! Allocation ceiling of one checkpoint.
//!
//! Installs [`CountingAllocator`] as this test binary's global allocator
//! and counts the heap allocations of one `GramServer::checkpoint` of a
//! durable server whose 4 096-record audit ring is full. The ring holds
//! each audit record as its journal payload and the snapshot copies
//! those bytes, so the count does not grow with the ring. The counter is process-wide,
//! so this file holds one test: a second test running beside it in the
//! same binary would count into it.

use gridauthz_bench::CountingAllocator;
use gridauthz_clock::SimDuration;
use gridauthz_gram::DurabilityConfig;
use gridauthz_journal::{MemSnapshotStore, MemStorage};
use gridauthz_sim::{Testbed, TestbedBuilder};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// Allocations of one checkpoint of a durable server with a full audit
/// ring. What is left encodes the other state records (the grid-map of
/// 19 entries and the one job); encoding every audit record again made
/// 41 144.
const CHECKPOINT_CEILING: u64 = 160;

#[test]
fn checkpoint_of_a_full_audit_ring_stays_under_its_allocation_ceiling() {
    let durability =
        DurabilityConfig::in_memory(MemStorage::new(), MemSnapshotStore::new()).snapshot_every(0);
    let Testbed { server, members, .. } =
        TestbedBuilder::new().members(16).cluster(128, 16).durability(durability).build();
    let work = SimDuration::from_secs(4 * 3600);
    let home = server
        .submit(members[0].chain(), "&(executable = TRANSP)(jobtag = NFC)(count = 1)", None, work)
        .expect("home job admitted");
    // Every status poll leaves one audit record: fill the ring past its
    // 4 096 records, and take a first checkpoint so the measured one
    // starts from warm tables.
    let poll = |n: usize| {
        for _ in 0..n {
            server.status(members[0].chain(), &home).expect("own job visible");
        }
    };
    poll(4200);
    server.checkpoint().expect("checkpoint");
    poll(64);
    assert_eq!(server.audit_snapshot().len(), 4096, "the ring is full");

    let before = ALLOCATOR.allocations();
    server.checkpoint().expect("checkpoint");
    let allocations = ALLOCATOR.allocations() - before;
    assert!(
        allocations <= CHECKPOINT_CEILING,
        "one checkpoint of a full audit ring made {allocations} allocations, over the ceiling of \
         {CHECKPOINT_CEILING}"
    );
}
