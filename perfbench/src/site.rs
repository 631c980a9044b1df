//! Set-up of the site under test: the simulated testbed's GRAM server
//! (memory-only or on a file-backed journal in a private directory),
//! every member's home job, and the loopback front-end.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gridauthz_clock::SimDuration;
use gridauthz_credential::{pem, GridMapEntry, GridMapFile};
use gridauthz_gram::{DurabilityConfig, Frontend, FrontendConfig, GramServer};
use gridauthz_journal::{SnapshotBlob, SnapshotStore, Storage};
use gridauthz_sim::{Testbed, TestbedBuilder};
use gridauthz_vo::VirtualOrganization;

use crate::workload::{Pems, Workload, HOME_RSL, WORK_MICROS};

/// Worker threads of the front-end under test.
pub const WORKERS: usize = 2;

/// Byte and operation counters of the journal and snapshot devices,
/// observed through the storage traits the durability layer writes
/// through (the program itself is not instrumented).
#[derive(Debug, Default)]
pub struct JournalMeter {
    /// Bytes appended to the journal device.
    pub bytes: AtomicU64,
    /// Snapshots saved (one per checkpoint).
    pub snapshots: AtomicU64,
}

struct MeteredStorage {
    inner: Box<dyn Storage>,
    meter: Arc<JournalMeter>,
}

impl Storage for MeteredStorage {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.meter.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }

    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.replace(bytes)
    }
}

struct MeteredSnapshots {
    inner: Box<dyn SnapshotStore>,
    meter: Arc<JournalMeter>,
}

impl SnapshotStore for MeteredSnapshots {
    fn load(&mut self) -> io::Result<Option<SnapshotBlob>> {
        self.inner.load()
    }

    fn save(&mut self, blob: &SnapshotBlob) -> io::Result<()> {
        self.meter.snapshots.fetch_add(1, Ordering::Relaxed);
        self.inner.save(blob)
    }
}

/// A directory removed (with its contents) when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates a fresh directory `<parent>/<tag>-<pid>-<n>`.
    pub fn create(parent: &Path, tag: &str) -> io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A served site, ready for load.
pub struct Site {
    /// The server under test.
    pub server: Arc<GramServer>,
    /// The front-end serving it on loopback.
    pub frontend: Option<Frontend>,
    /// Every identity's PEM chain.
    pub pems: Pems,
    /// Home-job contact per member (empty for workloads without).
    pub home: Vec<String>,
    /// The testbed's grid-map, swapped in unchanged to simulate churn.
    pub gridmap: GridMapFile,
    /// The VO whose generated policy the server enforces.
    pub vo: VirtualOrganization,
    /// Journal device counters (durable workloads only).
    pub meter: Option<Arc<JournalMeter>>,
    /// Where the journal lives; declared last so it is removed after the
    /// server has been dropped.
    _dir: Option<ScratchDir>,
}

impl Site {
    /// Builds the testbed, its home jobs and (with `serve`) the
    /// front-end, journaling under a fresh directory in `scratch` for
    /// durable workloads.
    pub fn build(workload: Workload, scratch: &Path, serve: bool) -> io::Result<Site> {
        let mut testbed = TestbedBuilder::new().members(workload.members()).cluster(128, 16);
        let (dir, meter) = if workload.durable() {
            let dir = ScratchDir::create(scratch, "journal")?;
            let meter = Arc::new(JournalMeter::default());
            let mut config = DurabilityConfig::at_dir(dir.path())?;
            config.storage =
                Box::new(MeteredStorage { inner: config.storage, meter: Arc::clone(&meter) });
            config.snapshots =
                Box::new(MeteredSnapshots { inner: config.snapshots, meter: Arc::clone(&meter) });
            testbed = testbed.durability(config);
            (Some(dir), Some(meter))
        } else {
            (None, None)
        };
        let Testbed { server, members, admin, bo, kate, vo, .. } = testbed.build();
        let pems = Pems {
            members: members.iter().map(|m| pem::encode_chain(m.chain())).collect(),
            admin: pem::encode_chain(admin.chain()),
        };
        let home = if workload.home_jobs() {
            members
                .iter()
                .map(|m| {
                    server
                        .submit(m.chain(), HOME_RSL, None, SimDuration::from_micros(WORK_MICROS))
                        .map(|c| c.as_str().to_string())
                        .map_err(|e| io::Error::other(format!("home job refused: {e}")))
                })
                .collect::<io::Result<Vec<_>>>()?
        } else {
            Vec::new()
        };
        // The testbed's grid-map, entry for entry.
        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(bo.identity(), vec!["bliu".into()]));
        gridmap.insert(GridMapEntry::new(kate.identity(), vec!["keahey".into()]));
        gridmap.insert(GridMapEntry::new(admin.identity(), vec!["voadmin".into()]));
        for (i, member) in members.iter().enumerate() {
            gridmap.insert(GridMapEntry::new(member.identity(), vec![format!("member{i:04}")]));
        }
        let server = Arc::new(server);
        let frontend = if serve {
            Some(Frontend::bind(
                Arc::clone(&server),
                "127.0.0.1:0",
                FrontendConfig { workers: WORKERS, ..FrontendConfig::default() },
            )?)
        } else {
            None
        };
        Ok(Site { server, frontend, pems, home, gridmap, vo, meter, _dir: dir })
    }

    /// Stops the front-end (joining its threads), if it is running.
    pub fn stop_frontend(&mut self) {
        if let Some(frontend) = self.frontend.take() {
            frontend.stop();
        }
    }
}

impl Drop for Site {
    fn drop(&mut self) {
        self.stop_frontend();
    }
}
