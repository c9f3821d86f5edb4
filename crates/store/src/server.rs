//! [`PersistentServer`]: the crash-safe [`Server`] implementation, and
//! [`PersistentBackend`]: its [`ServerBackend`] factory.
//!
//! The write path is strict write-ahead logging: every inbound message is
//! appended (and, under [`Durability::Always`], fsynced) **before** it is
//! applied and its reply released — so every state the server ever
//! acknowledged is reconstructible. Snapshots periodically absorb the
//! log: state is written atomically, then the log is rotated to a fresh
//! file whose `base_seq` continues the global numbering.
//!
//! If an append ever fails, the server *wedges*: it stops acknowledging
//! (returns no replies) rather than acknowledging unlogged state. To
//! clients a wedged server is a crashed server — a liveness problem the
//! fail-aware layer already models — never a safety problem.

use crate::codec::LogRecord;
use crate::log::Wal;
use crate::snapshot::{read_snapshot, write_snapshot, Snapshot};
use crate::StoreError;
use faust_types::{ClientId, CommitMsg, ReplyMsg, SubmitMsg};
use faust_ustor::{admits, ReplyCache, Server, ServerBackend, SessionResume, UstorServer};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replays one log record against `server` while rebuilding the
/// sender's duplicate-reply cache in `caches`: a COMMIT (standalone or
/// piggybacked) acknowledges replies, a SUBMIT's regenerated reply is
/// pushed, tagged with the SUBMIT's timestamp — the live engine's rule
/// ([`ReplyCache`]). The server is deterministic, so the rebuilt reply is
/// byte-identical to the one the pre-crash server sent — exactly what a
/// restarted engine must re-issue when the client resends that SUBMIT.
///
/// Only records behind the last snapshot are replayed, so the rebuilt
/// cache holds what the live one held only if no snapshot was taken since
/// the live one's replies were released: the reply to a SUBMIT a snapshot
/// absorbed is not rebuilt, and its resend goes unanswered (ROADMAP item
/// 1).
///
/// A record the door ([`admits`]) refuses, as older logs may hold,
/// changes nothing, and a refused piggyback acknowledges nothing.
fn replay_capturing(record: LogRecord, server: &mut dyn Server, caches: &mut [ReplyCache]) {
    let (n, from, ts) = (caches.len(), record.from(), record.submit_timestamp());
    let tuple = match &record {
        LogRecord::Submit { msg, .. } => Some(&msg.tuple),
        LogRecord::Commit { .. } => None,
    };
    if !admits(n, from, tuple, None) {
        return;
    }
    let acknowledged = record
        .commit()
        .filter(|commit| admits(n, from, None, Some(commit)))
        .map(|commit| ReplyCache::acknowledged(from, commit));
    let replies = record.apply(server);
    let cache = &mut caches[from.index()];
    if let Some(t) = acknowledged {
        cache.committed(t);
    }
    if let Some(ts) = ts {
        for (_, reply) in replies.into_iter().filter(|(to, _)| *to == from) {
            cache.push(ts, Cow::Owned(reply));
        }
    }
}

/// Assembles the per-client [`SessionResume`] records a recovered server
/// hands the engine: the last submitted timestamp and last written value
/// come from `MEM` (covering even snapshot-absorbed history; the value is
/// shared, not copied, and not hashed here), the replayable replies from
/// the post-snapshot log window in `caches`.
fn session_resume(server: &UstorServer, caches: Vec<ReplyCache>) -> Vec<SessionResume> {
    caches
        .into_iter()
        .enumerate()
        .map(|(i, cache)| {
            let entry = server.mem(ClientId::new(i as u32));
            SessionResume {
                last_timestamp: entry.timestamp,
                last_value: entry.value.clone(),
                replies: cache.into_iter().collect(),
            }
        })
        .collect()
}

/// A shared virtual clock for discrete-event simulations.
///
/// A store handed one via [`PersistentServer::with_sim_clock`] measures
/// its group-commit batch age in **virtual ticks** (1 tick = 1 ms of
/// `max_wait`) instead of wall-clock `Instant`s, and reports flush
/// deadlines through [`Server::flush_deadline_at`] rather than
/// [`Server::flush_deadline`]. The simulation harness owns the clock and
/// advances it (`set`) before every interaction with the server, which
/// makes flush timing — the one wall-clock dependency in the store's hot
/// path — fully deterministic under a seed.
///
/// Cloning shares the underlying clock (it is an `Arc`).
#[derive(Debug, Clone, Default)]
pub struct SimClock(Arc<AtomicU64>);

impl SimClock {
    /// A clock starting at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances (or rewinds — the clock does not police monotonicity,
    /// the simulation does) the clock to `now`.
    pub fn set(&self, now: u64) {
        self.0.store(now, Ordering::SeqCst);
    }

    /// The current virtual time in ticks.
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// When the oldest record of the current group-commit batch was appended
/// — on whichever clock the server runs.
#[derive(Debug, Clone, Copy)]
enum BatchStart {
    /// Wall-clock servers (the production path).
    Wall(Instant),
    /// Simulation-driven servers, in [`SimClock`] ticks.
    Virtual(u64),
}

/// When appended records become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// `fsync` after every append, before the reply is released. A
    /// power-cut after an acknowledgement can no longer lose the record.
    #[default]
    Always,
    /// Never `fsync`; rely on the OS page cache. A *process* crash loses
    /// nothing (the data is in kernel buffers), a machine crash may lose
    /// the tail. Benchmark and test mode.
    Never,
    /// **Group commit**: append records *without* fsyncing and hold
    /// their replies back; one fsync per batch makes the whole batch
    /// durable, and only then are its replies released ([`Server::flush`]).
    ///
    /// Acknowledged ⇒ durable still holds, batch-wise: a reply a client
    /// can observe is always preceded by the fsync covering its record.
    /// What changes is *latency*, bounded by the two knobs: a flush
    /// becomes due once `max_records` records are waiting, or once the
    /// oldest waiting record is `max_wait` old (a forced flush — e.g. a
    /// closing transport — ignores both). A crash between append and
    /// fsync loses only records whose replies were never released.
    Group {
        /// Flush once this many records are waiting (`0` behaves as `1`).
        max_records: u64,
        /// Flush once the oldest waiting record is this old — the upper
        /// bound on reply latency added by group commit.
        max_wait: Duration,
    },
}

impl Durability {
    /// A group-commit policy with moderate defaults: batches of up to 64
    /// records, at most 2 ms of added reply latency.
    pub fn group() -> Self {
        Durability::Group {
            max_records: 64,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// Configuration of a persistent store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Fsync policy for appends, snapshots, and rotations.
    pub durability: Durability,
    /// Write a snapshot and rotate the log every this many records;
    /// `0` disables automatic snapshots (the log grows unboundedly and
    /// [`PersistentServer::snapshot`] must be called by hand).
    pub snapshot_every: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            durability: Durability::Always,
            snapshot_every: 1024,
        }
    }
}

impl StoreConfig {
    /// Whether snapshots, rotations, and file creation fsync. Group
    /// commit is a *durable* policy — only the per-append fsync is
    /// amortized, never the rename barriers.
    fn sync(&self) -> bool {
        !matches!(self.durability, Durability::Never)
    }

    /// Whether each individual append fsyncs before returning.
    fn sync_each_append(&self) -> bool {
        matches!(self.durability, Durability::Always)
    }
}

/// A [`Server`] whose state survives crashes: an in-memory
/// [`UstorServer`] shadowed by the write-ahead log of [`crate::log`] and
/// the snapshots of [`crate::snapshot`].
///
/// See the crate docs for the trust story: durability here protects an
/// *honest* server from its own crashes; it does not make the server
/// trusted, and a server that tampers with its own log recovers into a
/// rollback that clients detect.
#[derive(Debug)]
pub struct PersistentServer {
    dir: PathBuf,
    config: StoreConfig,
    inner: UstorServer,
    wal: Wal,
    /// First append error, if any; once set the server is wedged and
    /// acknowledges nothing further.
    wedged: Option<StoreError>,
    /// Group commit: replies whose records are appended but whose batch
    /// has not yet been fsynced — withheld until [`Server::flush`].
    held: Vec<(ClientId, ReplyMsg)>,
    /// Records appended since the last fsync (or snapshot, which covers
    /// them durably).
    unsynced: u64,
    /// When the oldest unflushed record of the current batch was
    /// appended — the age the `max_wait` policy is measured against.
    batch_started: Option<BatchStart>,
    /// Virtual clock, when the server is simulation-driven; `None` on
    /// the production wall-clock path.
    sim_clock: Option<SimClock>,
    /// Per-client session state rebuilt by [`PersistentServer::recover`],
    /// handed to the engine once via [`Server::resume_sessions`]. Empty
    /// for a fresh store.
    resume: Vec<SessionResume>,
}

impl PersistentServer {
    /// Opens the store in `dir`, creating fresh state if the directory
    /// holds none, recovering otherwise.
    ///
    /// # Errors
    ///
    /// Structured [`StoreError`]s for recovery anomalies (see
    /// [`PersistentServer::recover`]), [`StoreError::RetiredShardLayout`]
    /// for a directory of the retired sharded layout, or file-system
    /// errors.
    pub fn open(dir: &Path, n: usize, config: StoreConfig) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        let has_wal = dir.join(crate::log::WAL_FILE).exists();
        let has_snapshot = dir.join(crate::snapshot::SNAPSHOT_FILE).exists();
        if has_wal || has_snapshot {
            return Self::recover(dir, n, config);
        }
        if dir.join("shard-0").is_dir() {
            return Err(StoreError::RetiredShardLayout);
        }
        let wal = Wal::create(dir, n, 0, config.sync())?;
        Ok(PersistentServer {
            dir: dir.to_path_buf(),
            config,
            inner: UstorServer::new(n),
            wal,
            wedged: None,
            held: Vec::new(),
            unsynced: 0,
            batch_started: None,
            sim_clock: None,
            resume: Vec::new(),
        })
    }

    /// Rebuilds a server from the durable state in `dir`: loads the
    /// snapshot (if any), then streams the log once, verifying and
    /// replaying each record as it is read.
    ///
    /// Recovery invariants (all violations are structured errors, never
    /// panics, never a silently-absorbed prefix):
    ///
    /// * snapshot and log header must both parse and carry the client
    ///   count `n` (the snapshot's is compared before its state is
    ///   decoded), and the log may not start after the
    ///   snapshot's coverage ends ([`StoreError::SnapshotAheadOfLog`]) —
    ///   all checked before any record is read, so nothing is ever
    ///   replayed into a server of the wrong `n`;
    /// * log records must checksum, decode, and be consecutively numbered
    ///   from the header's `base_seq` with no duplicates, gaps, or torn
    ///   tail;
    /// * records the snapshot already covers are still verified, just
    ///   not replayed (a crash between snapshot and log rotation leaves
    ///   such records behind — the one benign overlap);
    /// * the log may not end before the snapshot's coverage does
    ///   ([`StoreError::LogEndsBeforeSnapshot`]) and may not be missing
    ///   entirely when a snapshot exists ([`StoreError::MissingWal`]).
    ///
    /// An anomaly anywhere fails recovery and drops the partly rebuilt
    /// state. Memory is the state plus the largest record, not the log.
    ///
    /// The rebuilt in-memory state is **bit-identical** to the pre-crash
    /// server's (asserted in `tests/recovery.rs`), so a restarted server
    /// resumes mid-protocol invisibly to clients.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingState`] if `dir` holds no state at all;
    /// otherwise the anomaly that broke recovery.
    pub fn recover(dir: &Path, n: usize, config: StoreConfig) -> Result<Self, StoreError> {
        let snapshot = read_snapshot(dir, n)?;
        let has_wal = dir.join(crate::log::WAL_FILE).exists();
        if !has_wal {
            return match snapshot {
                Some(_) => Err(StoreError::MissingWal),
                None => Err(StoreError::MissingState),
            };
        }
        let mut log = Wal::reader(dir)?;
        let header = log.header();
        if header.n != n {
            return Err(StoreError::ClientCountMismatch {
                expected: n,
                found: header.n,
            });
        }
        let (mut inner, covered) = match snapshot {
            Some(snap) => {
                if header.base_seq > snap.next_seq {
                    return Err(StoreError::SnapshotAheadOfLog {
                        snapshot_next: snap.next_seq,
                        base_seq: header.base_seq,
                    });
                }
                (UstorServer::from_state(snap.state), snap.next_seq)
            }
            None => (UstorServer::new(n), 0),
        };
        let mut caches = vec![ReplyCache::default(); n];
        while let Some(scanned) = log.next_record()? {
            // Records below `covered` are verified but already reflected
            // in the snapshot.
            if scanned.seq >= covered {
                // Replay rebuilds state *and* recaptures the replies of
                // the post-snapshot window — the duplicate cache a
                // resumed engine answers resent SUBMITs from.
                replay_capturing(scanned.record, &mut inner, &mut caches);
            }
        }
        // A log whose END falls short of the snapshot's coverage: the
        // snapshot could serve the state, but the append counter would
        // rewind below it and records logged at those reused sequence
        // numbers would be skipped — silently — by the next recovery.
        if log.next_seq() < covered {
            return Err(StoreError::LogEndsBeforeSnapshot {
                snapshot_next: covered,
                log_next: log.next_seq(),
            });
        }
        let wal = Wal::resume(dir, log)?;
        let resume = session_resume(&inner, caches);
        Ok(PersistentServer {
            dir: dir.to_path_buf(),
            config,
            inner,
            wal,
            wedged: None,
            held: Vec::new(),
            unsynced: 0,
            batch_started: None,
            sim_clock: None,
            resume,
        })
    }

    /// The recovered/active protocol state (diagnostics and tests).
    pub fn server(&self) -> &UstorServer {
        &self.inner
    }

    /// Sequence number the next logged record will carry — equals the
    /// total number of messages ever acknowledged by this store.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Records in the current log file (since the last snapshot).
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// The first append/snapshot error, if the server has wedged.
    pub fn wedge_error(&self) -> Option<&StoreError> {
        self.wedged.as_ref()
    }

    /// Replies currently withheld for group commit (diagnostics/tests).
    pub fn held_replies(&self) -> usize {
        self.held.len()
    }

    /// Records appended but not yet covered by an fsync or snapshot
    /// (diagnostics/tests).
    pub fn unsynced_records(&self) -> u64 {
        self.unsynced
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Switches the server onto a virtual clock: group-commit batch age
    /// is measured in `clock` ticks (1 tick = 1 ms of `max_wait`) and
    /// flush deadlines surface via [`Server::flush_deadline_at`] instead
    /// of [`Server::flush_deadline`]. Used by the deterministic
    /// simulator; the wall-clock path is untouched when this is never
    /// called.
    #[must_use]
    pub fn with_sim_clock(mut self, clock: SimClock) -> Self {
        self.sim_clock = Some(clock);
        self
    }

    /// `max_wait` expressed in virtual ticks (1 tick = 1 ms), at least 1
    /// so a held batch never becomes due at its own append tick.
    fn max_wait_ticks(max_wait: Duration) -> u64 {
        (max_wait.as_millis() as u64).max(1)
    }

    /// Stamps the start of a new batch on whichever clock the server
    /// runs.
    fn batch_start(&self) -> BatchStart {
        match &self.sim_clock {
            Some(clock) => BatchStart::Virtual(clock.now()),
            None => BatchStart::Wall(Instant::now()),
        }
    }

    /// Whether the current batch has aged past `max_wait`.
    fn batch_expired(&self, max_wait: Duration) -> bool {
        match self.batch_started {
            Some(BatchStart::Wall(t)) => t.elapsed() >= max_wait,
            Some(BatchStart::Virtual(t)) => self
                .sim_clock
                .as_ref()
                .is_some_and(|c| c.now().saturating_sub(t) >= Self::max_wait_ticks(max_wait)),
            None => false,
        }
    }

    /// Writes a snapshot of the current state and rotates the log.
    ///
    /// Crash-ordering: the snapshot is atomically renamed into place
    /// (durably, under [`Durability::Always`]) *before* the log is
    /// rotated, so a crash between the two leaves a snapshot plus a log
    /// whose early records it already covers — which recovery skips.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; on error the old log keeps
    /// growing and the server stays consistent.
    pub fn snapshot(&mut self) -> Result<(), StoreError> {
        let next_seq = self.wal.next_seq();
        write_snapshot(
            &self.dir,
            &Snapshot {
                n: self.inner.num_clients(),
                next_seq,
                state: self.inner.export_state(),
            },
            self.config.sync(),
        )?;
        self.wal = Wal::create(
            &self.dir,
            self.inner.num_clients(),
            next_seq,
            self.config.sync(),
        )?;
        // The (durably renamed) snapshot covers every record appended so
        // far, including an unsynced group-commit tail — those records
        // are durable now without their own fsync.
        self.unsynced = 0;
        Ok(())
    }

    /// Wedges the server: record the first error, and drop every
    /// withheld reply — their records may not be durable, and a wedged
    /// server acknowledges nothing (crash-silence).
    fn wedge(&mut self, e: StoreError) {
        self.wedged = Some(e);
        self.held.clear();
        self.unsynced = 0;
        self.batch_started = None;
    }

    /// Appends `record` ahead of applying it; on failure wedges the
    /// server. Returns whether the record was appended (and, under
    /// per-append fsync, made durable — so the message may be
    /// acknowledged).
    fn log(&mut self, record: &LogRecord) -> bool {
        if self.wedged.is_some() {
            return false;
        }
        match self.wal.append(record, self.config.sync_each_append()) {
            Ok(_) => true,
            Err(e) => {
                self.wedge(e);
                false
            }
        }
    }

    /// Snapshot if the rotation threshold is reached; a failed snapshot
    /// wedges the server (its log can no longer be compacted, but more
    /// importantly the failure is surfaced instead of swallowed).
    fn maybe_snapshot(&mut self) {
        if self.config.snapshot_every == 0 || self.wal.records() < self.config.snapshot_every {
            return;
        }
        if let Err(e) = self.snapshot() {
            self.wedge(e);
        }
    }
}

impl PersistentServer {
    /// The shared write path: log the record (write-ahead), then apply
    /// the very record that was logged — no copies, no divergence
    /// between what is durable and what executed.
    ///
    /// Under [`Durability::Group`] the replies are *withheld* instead of
    /// returned: they join the current batch and come out of
    /// [`Server::flush`] once the batch's single fsync has run. If the
    /// batch fills up (`max_records`) right here, the flush happens
    /// inline and this call releases the whole batch.
    fn log_then_apply(&mut self, record: LogRecord) -> Vec<(ClientId, ReplyMsg)> {
        if !self.log(&record) {
            return Vec::new(); // wedged: crash-silence, never unlogged acks
        }
        let replies = record.apply(&mut self.inner);
        match self.config.durability {
            Durability::Group { max_records, .. } => {
                self.unsynced += 1;
                let start = self.batch_start();
                self.batch_started.get_or_insert(start);
                self.held.extend(replies);
                self.maybe_snapshot();
                if self.unsynced >= max_records.max(1) {
                    self.flush(true)
                } else {
                    Vec::new()
                }
            }
            Durability::Always | Durability::Never => {
                self.maybe_snapshot();
                replies
            }
        }
    }
}

impl Server for PersistentServer {
    fn on_submit(&mut self, client: ClientId, msg: SubmitMsg) -> Vec<(ClientId, ReplyMsg)> {
        self.log_then_apply(LogRecord::Submit { from: client, msg })
    }

    fn resume_sessions(&mut self) -> Vec<SessionResume> {
        std::mem::take(&mut self.resume)
    }

    fn on_commit(&mut self, client: ClientId, msg: CommitMsg) -> Vec<(ClientId, ReplyMsg)> {
        self.log_then_apply(LogRecord::Commit { from: client, msg })
    }

    /// The group-commit release point: fsync the batch once, then hand
    /// back every withheld reply. Without [`Durability::Group`] (or with
    /// nothing waiting) this is a no-op.
    ///
    /// A non-forced flush respects the batching policy — it runs only
    /// once the batch is full (`max_records`), old enough (`max_wait`),
    /// or already durable (absorbed by a snapshot). A failed fsync
    /// wedges the server and the withheld replies are dropped, exactly
    /// like a failed append: crash-silence, never an unfsynced ack.
    fn flush(&mut self, force: bool) -> Vec<(ClientId, ReplyMsg)> {
        let Durability::Group {
            max_records,
            max_wait,
        } = self.config.durability
        else {
            return Vec::new();
        };
        if self.wedged.is_some() || (self.held.is_empty() && self.unsynced == 0) {
            return Vec::new();
        }
        let due = force
            || self.unsynced == 0 // snapshot already made the batch durable
            || self.unsynced >= max_records.max(1)
            || self.batch_expired(max_wait);
        if !due {
            return Vec::new();
        }
        if self.unsynced > 0 {
            if let Err(e) = self.wal.sync() {
                self.wedge(e);
                return Vec::new();
            }
            self.unsynced = 0;
        }
        self.batch_started = None;
        std::mem::take(&mut self.held)
    }

    fn flush_deadline(&self) -> Option<Instant> {
        let Durability::Group { max_wait, .. } = self.config.durability else {
            return None;
        };
        if self.wedged.is_some() || (self.held.is_empty() && self.unsynced == 0) {
            return None;
        }
        // `batch_started` is always `Some` while anything is held or
        // unsynced (every append sets it; wedge and flush clear all
        // three together) — `?` keeps that invariant self-enforcing.
        match self.batch_started? {
            BatchStart::Wall(t) => Some(t + max_wait),
            // A virtual-clock batch reports via `flush_deadline_at`.
            BatchStart::Virtual(_) => None,
        }
    }

    fn flush_deadline_at(&self) -> Option<u64> {
        let Durability::Group { max_wait, .. } = self.config.durability else {
            return None;
        };
        if self.wedged.is_some() || (self.held.is_empty() && self.unsynced == 0) {
            return None;
        }
        match self.batch_started? {
            BatchStart::Wall(_) => None,
            BatchStart::Virtual(t) => Some(t + Self::max_wait_ticks(max_wait)),
        }
    }
}

/// The persistent [`ServerBackend`]: building it *recovers* whatever the
/// directory holds (or initializes fresh state), so handing the same
/// backend to [`CrashRestartServer`](faust_ustor::CrashRestartServer) —
/// or calling it again after a real process restart — resumes the
/// schedule where the log left it.
#[derive(Debug, Clone)]
pub struct PersistentBackend {
    /// Store directory.
    pub dir: PathBuf,
    /// Store configuration.
    pub config: StoreConfig,
}

impl PersistentBackend {
    /// A backend rooted at `dir` with `config`.
    pub fn new(dir: impl Into<PathBuf>, config: StoreConfig) -> Self {
        PersistentBackend {
            dir: dir.into(),
            config,
        }
    }
}

impl ServerBackend for PersistentBackend {
    fn build(&self, n: usize) -> std::io::Result<Box<dyn Server + Send>> {
        let server = PersistentServer::open(&self.dir, n, self.config.clone())?;
        Ok(Box::new(server))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_op, scratch_dir};
    use faust_types::Value;
    use faust_ustor::UstorClient;

    fn no_sync() -> StoreConfig {
        StoreConfig {
            durability: Durability::Never,
            ..StoreConfig::default()
        }
    }

    fn clients(n: usize) -> Vec<UstorClient> {
        crate::testutil::clients(n, b"store-server-tests")
    }

    #[test]
    fn logs_before_acknowledging_and_counts_seqs() {
        let dir = scratch_dir("srv-seq");
        let mut server = PersistentServer::open(&dir, 2, no_sync()).unwrap();
        let mut cs = clients(2);
        let submit = cs[0].begin_write(Value::from("v")).unwrap();
        run_op(&mut server, &mut cs[0], submit);
        // One submit + one commit logged.
        assert_eq!(server.next_seq(), 2);
        assert_eq!(server.wal_records(), 2);
        assert!(server.wedge_error().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_snapshot_rotates_the_log() {
        let dir = scratch_dir("srv-rotate");
        let config = StoreConfig {
            durability: Durability::Never,
            snapshot_every: 4,
        };
        let mut server = PersistentServer::open(&dir, 2, config.clone()).unwrap();
        let mut cs = clients(2);
        for round in 0..4u64 {
            let submit = cs[0].begin_write(Value::unique(0, round)).unwrap();
            run_op(&mut server, &mut cs[0], submit);
        }
        // 8 records total; rotation happened at least once.
        assert_eq!(server.next_seq(), 8);
        assert!(server.wal_records() < 8, "log was compacted");
        assert!(dir.join(crate::snapshot::SNAPSHOT_FILE).exists());
        // And the rotated store still recovers to the same state.
        let reference = server.server().clone();
        drop(server);
        let recovered = PersistentServer::recover(&dir, 2, config).unwrap();
        assert_eq!(*recovered.server(), reference);
        assert_eq!(recovered.next_seq(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_on_empty_dir_initializes_and_recover_demands_state() {
        let dir = scratch_dir("srv-fresh");
        assert!(matches!(
            PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
            StoreError::MissingState
        ));
        let server = PersistentServer::open(&dir, 2, no_sync()).unwrap();
        assert_eq!(server.next_seq(), 0);
        drop(server);
        // Now open() recovers instead of reinitializing.
        let server = PersistentServer::open(&dir, 2, no_sync()).unwrap();
        assert_eq!(server.next_seq(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_retired_shard_layout_is_refused_not_initialized_beside() {
        let dir = scratch_dir("srv-retired-layout");
        std::fs::create_dir_all(dir.join("shard-0")).unwrap();
        assert!(matches!(
            PersistentServer::open(&dir, 2, no_sync()).unwrap_err(),
            StoreError::RetiredShardLayout
        ));
        assert!(
            !dir.join(crate::log::WAL_FILE).exists(),
            "no fresh store started beside the old data"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_count_mismatch_is_rejected() {
        let dir = scratch_dir("srv-n");
        drop(PersistentServer::open(&dir, 2, no_sync()).unwrap());
        assert!(matches!(
            PersistentServer::recover(&dir, 3, no_sync()).unwrap_err(),
            StoreError::ClientCountMismatch {
                expected: 3,
                found: 2
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Group commit with thresholds no test path reaches by accident:
    /// releases happen only when the test flushes or fills the batch.
    fn group(max_records: u64) -> StoreConfig {
        StoreConfig {
            durability: Durability::Group {
                max_records,
                max_wait: std::time::Duration::from_secs(3600),
            },
            snapshot_every: 0,
        }
    }

    #[test]
    fn group_commit_withholds_replies_until_flush() {
        let dir = scratch_dir("srv-group-hold");
        let mut server = PersistentServer::open(&dir, 2, group(100)).unwrap();
        let mut cs = clients(2);
        let submit = cs[0].begin_write(Value::from("held")).unwrap();
        // The append happens, but the reply is withheld: acked ⇒ durable.
        assert!(server.on_submit(ClientId::new(0), submit).is_empty());
        assert_eq!(server.held_replies(), 1);
        assert_eq!(server.unsynced_records(), 1);
        assert_eq!(server.next_seq(), 1, "record was appended");
        // A non-forced flush is not due (batch small, age young).
        assert!(server.flush(false).is_empty());
        assert_eq!(server.held_replies(), 1);
        assert!(server.flush_deadline().is_some());
        // A forced flush fsyncs once and releases the reply.
        let mut released = server.flush(true);
        assert_eq!(released.len(), 1);
        assert_eq!(server.held_replies(), 0);
        assert_eq!(server.unsynced_records(), 0);
        assert!(server.flush_deadline().is_none());
        // The released reply is a perfectly ordinary protocol reply.
        let (to, reply) = released.pop().unwrap();
        assert_eq!(to, ClientId::new(0));
        let (commit, done) = cs[0].handle_reply(reply).expect("correct server");
        assert_eq!(done.timestamp, 1);
        // The commit's append joins the next batch.
        assert!(server
            .on_commit(ClientId::new(0), commit.unwrap())
            .is_empty());
        assert_eq!(server.unsynced_records(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_releases_inline_when_the_batch_fills() {
        let dir = scratch_dir("srv-group-full");
        let mut server = PersistentServer::open(&dir, 3, group(3)).unwrap();
        let mut cs = clients(3);
        for i in 0..2u32 {
            let submit = cs[i as usize].begin_write(Value::unique(i, 0)).unwrap();
            assert!(server.on_submit(ClientId::new(i), submit).is_empty());
        }
        // The third append fills the batch: one fsync, all three replies
        // released by the very on_submit call that crossed the line.
        let submit = cs[2].begin_write(Value::unique(2, 0)).unwrap();
        let released = server.on_submit(ClientId::new(2), submit);
        assert_eq!(released.len(), 3);
        assert_eq!(server.unsynced_records(), 0);
        assert_eq!(server.held_replies(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_max_wait_makes_a_flush_due() {
        let dir = scratch_dir("srv-group-age");
        let config = StoreConfig {
            durability: Durability::Group {
                max_records: 1000,
                max_wait: std::time::Duration::from_millis(1),
            },
            snapshot_every: 0,
        };
        let mut server = PersistentServer::open(&dir, 1, config).unwrap();
        let mut cs = clients(1);
        let submit = cs[0].begin_write(Value::from("aging")).unwrap();
        assert!(server.on_submit(ClientId::new(0), submit).is_empty());
        let deadline = server.flush_deadline().expect("reply is held");
        std::thread::sleep(deadline.saturating_duration_since(std::time::Instant::now()));
        std::thread::sleep(std::time::Duration::from_millis(2));
        // Past max_wait, an ordinary (non-forced) flush is due.
        assert_eq!(server.flush(false).len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn virtual_clock_batch_ages_in_ticks_not_wall_time() {
        let dir = scratch_dir("srv-group-vclock");
        let config = StoreConfig {
            durability: Durability::Group {
                max_records: 1000,
                max_wait: std::time::Duration::from_millis(5),
            },
            snapshot_every: 0,
        };
        let clock = SimClock::new();
        clock.set(100);
        let mut server = PersistentServer::open(&dir, 1, config)
            .unwrap()
            .with_sim_clock(clock.clone());
        let mut cs = clients(1);
        let submit = cs[0].begin_write(Value::from("virtual")).unwrap();
        assert!(server.on_submit(ClientId::new(0), submit).is_empty());
        // Virtual batches report through flush_deadline_at, never the
        // wall-clock method.
        assert!(server.flush_deadline().is_none());
        assert_eq!(server.flush_deadline_at(), Some(105));
        // No amount of *wall* time makes the batch due — only ticks do.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(server.flush(false).is_empty());
        clock.set(104);
        assert!(server.flush(false).is_empty(), "one tick short");
        clock.set(105);
        assert_eq!(server.flush(false).len(), 1, "due exactly at deadline");
        assert!(server.flush_deadline_at().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn virtual_clock_sub_millisecond_max_wait_rounds_up_to_one_tick() {
        let dir = scratch_dir("srv-group-vclock-subms");
        let config = StoreConfig {
            durability: Durability::Group {
                max_records: 1000,
                max_wait: std::time::Duration::from_micros(100),
            },
            snapshot_every: 0,
        };
        let clock = SimClock::new();
        let mut server = PersistentServer::open(&dir, 1, config)
            .unwrap()
            .with_sim_clock(clock.clone());
        let mut cs = clients(1);
        let submit = cs[0].begin_write(Value::from("v")).unwrap();
        server.on_submit(ClientId::new(0), submit);
        // Rounded up: never due at the append tick itself.
        assert_eq!(server.flush_deadline_at(), Some(1));
        assert!(server.flush(false).is_empty());
        clock.set(1);
        assert_eq!(server.flush(false).len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_absorbs_an_unsynced_group_batch() {
        let dir = scratch_dir("srv-group-snap");
        let config = StoreConfig {
            durability: Durability::Group {
                max_records: 1000,
                max_wait: std::time::Duration::from_secs(3600),
            },
            snapshot_every: 2,
        };
        let mut server = PersistentServer::open(&dir, 2, config).unwrap();
        let mut cs = clients(2);
        for i in 0..2u32 {
            let submit = cs[i as usize].begin_write(Value::unique(i, 0)).unwrap();
            server.on_submit(ClientId::new(i), submit);
        }
        // The rotation threshold hit: the durably-written snapshot now
        // covers the batch, so nothing is left unsynced...
        assert_eq!(server.unsynced_records(), 0);
        assert!(dir.join(crate::snapshot::SNAPSHOT_FILE).exists());
        // ...and the next non-forced flush releases without any policy
        // wait (the records are already durable).
        assert_eq!(server.flush(false).len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rebuilds_the_duplicate_reply_cache() {
        use faust_types::Wire;
        let dir = scratch_dir("srv-resume");
        let mut server = PersistentServer::open(&dir, 2, no_sync()).unwrap();
        let mut cs = clients(2);
        let submit = cs[0].begin_write(Value::from("durable")).unwrap();
        run_op(&mut server, &mut cs[0], submit);
        // A read whose ack is lost with the connection: logged and
        // applied, but the client never saw the reply.
        let read = cs[0].begin_read(ClientId::new(0)).unwrap();
        let (_, original) = server.on_submit(ClientId::new(0), read).pop().unwrap();
        drop(server); // crash

        let mut server = PersistentServer::recover(&dir, 2, no_sync()).unwrap();
        let resume = server.resume_sessions();
        assert_eq!(resume.len(), 2);
        assert_eq!(resume[0].last_timestamp, 2, "write then read");
        assert_eq!(resume[0].last_value, Some(Value::from("durable")));
        // The rebuilt ts=2 reply is byte-identical to the lost one — a
        // resent SUBMIT gets the exact ack the pre-crash server sent.
        let cached = resume[0]
            .replies
            .iter()
            .find(|(ts, _)| *ts == 2)
            .map(|(_, r)| r.encode());
        assert_eq!(cached, Some(original.encode()));
        assert_eq!(resume[1].last_timestamp, 0);
        assert!(resume[1].replies.is_empty());
        // The resume state is surrendered once, to one engine.
        assert!(server.resume_sessions().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Recovers a store whose log ends in client 0's read, forged by
    /// `forge`, with a piggyback acknowledging the reply it still has
    /// cached — the tail a server that logged before it admitted leaves —
    /// and requires the protocol state and sessions of the log without
    /// it. Returns the recovered server.
    fn a_refused_tail_recovers_as_if_never_logged(
        label: &str,
        forge: impl FnOnce(&mut SubmitMsg),
    ) -> (PersistentServer, PathBuf) {
        use faust_types::{Timestamp, Wire};
        /// What recovery rebuilt: the protocol state and every session.
        type Rebuilt = (faust_ustor::ServerState, Vec<(Timestamp, Vec<Vec<u8>>)>);
        fn rebuilt(server: &mut PersistentServer) -> Rebuilt {
            let sessions = server.resume_sessions().into_iter();
            let sessions = sessions.map(|resume| {
                let replies = resume.replies.iter().map(|(_, reply)| reply.encode());
                (resume.last_timestamp, replies.collect())
            });
            (server.server().export_state(), sessions.collect())
        }
        let dir = scratch_dir(label);
        let c0 = ClientId::new(0);
        let mut server = PersistentServer::open(&dir, 2, no_sync()).unwrap();
        let mut cs = clients(2);
        let submit = cs[0].begin_write(Value::from("durable")).unwrap();
        run_op(&mut server, &mut cs[0], submit);
        // A read whose COMMIT is still on its way: its reply stays cached.
        let read = cs[0].begin_read(c0).unwrap();
        let (_, reply) = server.on_submit(c0, read).pop().unwrap();
        let (commit, _) = cs[0].handle_reply(reply).unwrap();
        drop(server);
        let mut server = PersistentServer::recover(&dir, 2, no_sync()).unwrap();
        let without = rebuilt(&mut server);
        assert_eq!(without.1[0].1.len(), 1, "the read's reply is cached");
        let mut forged = cs[0].begin_read(c0).unwrap();
        forge(&mut forged);
        forged.piggyback = commit;
        let record = LogRecord::Submit {
            from: c0,
            msg: forged,
        };
        server.wal.append(&record, false).unwrap();
        drop(server);
        let mut server = PersistentServer::recover(&dir, 2, no_sync()).unwrap();
        assert_eq!(rebuilt(&mut server), without);
        (server, dir)
    }

    #[test]
    fn a_logged_record_the_door_refuses_recovers_as_if_never_logged() {
        // A read of register `n`.
        let (server, dir) = a_refused_tail_recovers_as_if_never_logged("srv-door", |read| {
            read.tuple.register = ClientId::new(2)
        });
        // Nor does replay fall over a sender or a COMMIT arity outside the
        // deployment.
        let mut caches = vec![ReplyCache::default(); 2];
        let mut inner = server.server().clone();
        let garbage = faust_crypto::Signature::garbage();
        let commit = |n| CommitMsg {
            version: faust_types::Version::initial(n),
            commit_sig: garbage,
            proof_sig: garbage,
        };
        for (from, msg) in [(ClientId::new(2), commit(2)), (ClientId::new(1), commit(1))] {
            replay_capturing(LogRecord::Commit { from, msg }, &mut inner, &mut caches);
        }
        assert_eq!(&inner, server.server());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_logged_submit_naming_another_client_recovers_as_if_never_logged() {
        // Client 0's read whose tuple names client 7, outside the
        // deployment, or client 1, inside it: either tuple in `L` would
        // fail client 1's next REPLY.
        for other in [7, 1] {
            let label = format!("srv-door-tuple-{other}");
            let (_, dir) = a_refused_tail_recovers_as_if_never_logged(&label, |read| {
                read.tuple.client = ClientId::new(other)
            });
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn backend_builds_and_rebuilds() {
        let dir = scratch_dir("srv-backend");
        let backend = PersistentBackend::new(&dir, no_sync());
        let mut server = backend.build(2).unwrap();
        let mut cs = clients(2);
        let submit = cs[0].begin_write(Value::from("durable")).unwrap();
        run_op(server.as_mut(), &mut cs[0], submit);
        drop(server);
        // Rebuild = recover: the read sees the pre-"crash" write.
        let mut server = backend.build(2).unwrap();
        let submit = cs[1].begin_read(ClientId::new(0)).unwrap();
        let (_, reply) = server.on_submit(ClientId::new(1), submit).pop().unwrap();
        let (_, done) = cs[1].handle_reply(reply).expect("no violation");
        assert_eq!(done.read_value, Some(Some(Value::from("durable"))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
