//! Sharded persistence: one store directory per shard, one recovery.
//!
//! A sharded deployment ([`faust_ustor::ShardedServer`]) replicates the
//! protocol state across every shard but partitions the *durability*
//! work: only the shard owning a message appends it to disk. This
//! module supplies both halves of that contract:
//!
//! * [`ShardStore`] — the persistent [`ShardMember`]: a full replica
//!   plus its own write-ahead log, snapshots, and group-commit schedule
//!   for the messages it owns. Logged records are
//!   [`LogRecord::Routed`]: ordinary consecutive *local* WAL sequence
//!   numbers on the outside, the cross-shard *global* sequence number
//!   inside the checksummed payload.
//! * [`ShardedBackend`] — the [`ServerBackend`] that lays shards out as
//!   `shard-<i>/` subdirectories and, on restart, merges their logs
//!   back into one strictly gap-checked global history.
//!
//! # Recovery
//!
//! Replicas are deterministic, so any two shards at the same global
//! coverage hold bit-identical state. Recovery therefore rebuilds **one**
//! state and clones it into every shard:
//!
//! 1. each shard's snapshot and log are read and locally validated
//!    (same strictness as [`PersistentServer`](crate::PersistentServer):
//!    checksums, consecutive local sequence numbers, snapshot/log
//!    coherence — plus: every record must be `Routed`, every snapshot
//!    must carry its global coverage);
//! 2. the snapshot with the greatest global coverage `G` seeds the
//!    state (records below `G` are already reflected in it);
//! 3. every shard's records with global sequence number `≥ G` are
//!    merged, sorted, and validated **consecutive from `G`** — a
//!    missing owned record is a [`StoreError::SequenceGap`], a repeated
//!    one a [`StoreError::DuplicateRecord`]; no silent prefixes, ever —
//!    then replayed in global order.
//!
//! The deployment resumes sequencing at the first unseen global number,
//! so a restart is invisible to clients — while a *truncated* shard log
//! recovers (via the explicit [`ShardedBackend::repair`] mode, never
//! silently) into exactly the rollback fail-aware clients detect.
//!
//! # Crash semantics
//!
//! If any one shard wedges (a failed append, fsync, or snapshot), the
//! whole deployment goes crash-silent — [`ShardedServer`] stops
//! sequencing the moment a wedge is observed. Partial progress on the
//! surviving shards would fork the global order that recovery rebuilds;
//! a uniformly silent server is just a crashed server, the honest
//! failure mode the fail-aware layer already models.

use crate::codec::LogRecord;
use crate::log::{truncate_tail_records, Wal, WAL_FILE};
use crate::server::{replay_capturing, session_resume, Durability, StoreConfig};
use crate::snapshot::{read_snapshot, write_snapshot, Snapshot};
use crate::StoreError;
use faust_types::{ClientId, CommitMsg, ReplyMsg, SubmitMsg};
use faust_ustor::{
    ReplyCache, Server, ServerBackend, SessionResume, ShardMember, ShardedServer, UstorServer,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The directory of shard `shard` inside a sharded store rooted at
/// `dir`.
pub fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

/// A persistent shard: a full state replica, durable only for the
/// messages it owns.
///
/// Owned messages follow the `PersistentServer` write path exactly —
/// log first ([`LogRecord::Routed`], local WAL numbering), then apply
/// the very record that was logged, withholding replies under
/// [`Durability::Group`] until the batch fsync. Non-owned messages take
/// the absorb path: state update only, no I/O, no replies. The shard
/// tracks the first global sequence number not yet reflected in its
/// state, and stamps it into every snapshot
/// ([`Snapshot::global_next_seq`]) so recovery knows how far each
/// replica's state reaches.
#[derive(Debug)]
pub struct ShardStore {
    shard: usize,
    dir: PathBuf,
    config: StoreConfig,
    inner: UstorServer,
    wal: Wal,
    /// First global sequence number not reflected in `inner`.
    global_next: u64,
    wedged: Option<StoreError>,
    held: Vec<(ClientId, ReplyMsg)>,
    unsynced: u64,
    batch_started: Option<Instant>,
}

impl ShardStore {
    fn assemble(
        shard: usize,
        dir: &Path,
        config: StoreConfig,
        inner: UstorServer,
        wal: Wal,
        global_next: u64,
    ) -> Self {
        ShardStore {
            shard,
            dir: dir.to_path_buf(),
            config,
            inner,
            wal,
            global_next,
            wedged: None,
            held: Vec::new(),
            unsynced: 0,
            batch_started: None,
        }
    }

    /// The shard's index within its deployment.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The replica state (diagnostics and tests).
    pub fn server(&self) -> &UstorServer {
        &self.inner
    }

    /// Local sequence number the next logged record will carry — the
    /// number of messages this shard has ever *owned*.
    pub fn next_local_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// First global sequence number not reflected in the replica.
    pub fn global_next_seq(&self) -> u64 {
        self.global_next
    }

    /// Writes a snapshot of the replica and rotates the shard's log.
    /// Same crash-ordering as the single-engine store: snapshot renamed
    /// into place before the rotation, overlap skipped by recovery.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; on error the old log keeps
    /// growing and the shard stays consistent.
    pub fn snapshot(&mut self) -> Result<(), StoreError> {
        let next_seq = self.wal.next_seq();
        write_snapshot(
            &self.dir,
            &Snapshot {
                n: self.inner.num_clients(),
                next_seq,
                state: self.inner.export_state(),
                global_next_seq: Some(self.global_next),
            },
            self.config.sync(),
        )?;
        self.wal = Wal::create(
            &self.dir,
            self.inner.num_clients(),
            next_seq,
            self.config.sync(),
        )?;
        // The snapshot durably covers the unsynced group-commit tail.
        self.unsynced = 0;
        Ok(())
    }

    fn wedge(&mut self, e: StoreError) {
        self.wedged = Some(e);
        self.held.clear();
        self.unsynced = 0;
        self.batch_started = None;
    }

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

    fn maybe_snapshot(&mut self) {
        if self.config.snapshot_every == 0 || self.wal.records() < self.config.snapshot_every {
            return;
        }
        if let Err(e) = self.snapshot() {
            self.wedge(e);
        }
    }

    /// The owned-message write path — `PersistentServer::log_then_apply`
    /// with the record wrapped in its global position.
    fn log_then_apply(&mut self, seq: u64, inner: LogRecord) -> Vec<(ClientId, ReplyMsg)> {
        let record = LogRecord::Routed {
            seq,
            inner: Box::new(inner),
        };
        if !self.log(&record) {
            return Vec::new(); // wedged: crash-silence, never unlogged acks
        }
        self.global_next = seq + 1;
        let replies = record.apply(&mut self.inner);
        match self.config.durability {
            Durability::Group { max_records, .. } => {
                self.unsynced += 1;
                self.batch_started.get_or_insert_with(Instant::now);
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

impl ShardMember for ShardStore {
    fn apply_submit(
        &mut self,
        seq: u64,
        from: ClientId,
        msg: SubmitMsg,
        owned: bool,
    ) -> Vec<(ClientId, ReplyMsg)> {
        if !owned {
            // Absorb path: keep the replica current, nothing durable —
            // the owner's log is the record of this message.
            if self.wedged.is_none() {
                self.inner.absorb_submit(from, msg);
                self.global_next = seq + 1;
            }
            return Vec::new();
        }
        self.log_then_apply(seq, LogRecord::Submit { from, msg })
    }

    fn apply_commit(
        &mut self,
        seq: u64,
        from: ClientId,
        msg: CommitMsg,
        owned: bool,
    ) -> Vec<(ClientId, ReplyMsg)> {
        if !owned {
            if self.wedged.is_none() {
                self.inner.on_commit(from, msg);
                self.global_next = seq + 1;
            }
            return Vec::new();
        }
        self.log_then_apply(seq, LogRecord::Commit { from, msg })
    }

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
            || self.batch_started.is_some_and(|t| t.elapsed() >= max_wait);
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
        Some(self.batch_started? + max_wait)
    }

    fn wedged(&self) -> Option<String> {
        self.wedged.as_ref().map(|e| e.to_string())
    }
}

/// One shard's durable remains, scanned and locally validated.
struct ScannedShard {
    wal: Wal,
    /// The shard's snapshot, if any.
    snapshot: Option<Snapshot>,
    /// `(global_seq, record)` for every record in the shard's log.
    records: Vec<(u64, LogRecord)>,
}

impl ScannedShard {
    /// First global sequence number not reflected in the snapshot state
    /// (0 when the shard has never snapshotted).
    fn coverage(&self) -> u64 {
        self.snapshot
            .as_ref()
            .and_then(|s| s.global_next_seq)
            .unwrap_or(0)
    }
}

/// Reads and locally validates shard `shard` of a sharded store — the
/// per-shard half of recovery.
fn scan_shard(dir: &Path, shard: usize, n: usize) -> Result<ScannedShard, StoreError> {
    let sdir = shard_dir(dir, shard);
    let snapshot = read_snapshot(&sdir)?;
    if !sdir.join(WAL_FILE).exists() {
        return match snapshot {
            Some(_) => Err(StoreError::MissingWal),
            None => Err(StoreError::MissingState),
        };
    }
    let (wal, contents) = Wal::open(&sdir)?;
    if wal.n() != n {
        return Err(StoreError::ClientCountMismatch {
            expected: n,
            found: wal.n(),
        });
    }
    if let Some(snap) = &snapshot {
        if snap.n != n {
            return Err(StoreError::ClientCountMismatch {
                expected: n,
                found: snap.n,
            });
        }
        if snap.global_next_seq.is_none() {
            return Err(StoreError::UnshardedSnapshot { shard });
        }
        if contents.header.base_seq > snap.next_seq {
            return Err(StoreError::SnapshotAheadOfLog {
                snapshot_next: snap.next_seq,
                base_seq: contents.header.base_seq,
            });
        }
        if contents.next_seq() < snap.next_seq {
            return Err(StoreError::LogEndsBeforeSnapshot {
                snapshot_next: snap.next_seq,
                log_next: contents.next_seq(),
            });
        }
    }
    let mut records = Vec::with_capacity(contents.records.len());
    for scanned in contents.records {
        let Some(global) = scanned.record.global_seq() else {
            return Err(StoreError::UnroutedRecord {
                shard,
                seq: scanned.seq,
            });
        };
        records.push((global, scanned.record));
    }
    Ok(ScannedShard {
        wal,
        snapshot,
        records,
    })
}

/// The single recovered truth of a sharded store: one state, the global
/// position it reaches, and each shard's reopened log.
struct RecoveredShards {
    state: UstorServer,
    global_next: u64,
    shards: Vec<ScannedShard>,
    /// Per-client session state rebuilt from the merged replay, for the
    /// engine's duplicate cache (see [`Server::resume_sessions`]).
    resume: Vec<SessionResume>,
}

/// Merges the shards' durable remains back into one state — the global
/// half of recovery (see the module docs for the invariants).
fn recover_shards(dir: &Path, shards: usize, n: usize) -> Result<RecoveredShards, StoreError> {
    let mut scanned = Vec::with_capacity(shards);
    for shard in 0..shards {
        scanned.push(scan_shard(dir, shard, n)?);
    }
    // Seed from the deepest snapshot: replicas are deterministic, so the
    // shard that snapshotted furthest holds the state every other shard
    // would reach at that same global position.
    let base = scanned
        .iter()
        .map(ScannedShard::coverage)
        .max()
        .unwrap_or(0);
    let mut state = match scanned
        .iter()
        .find(|s| s.coverage() == base)
        .and_then(|s| s.snapshot.as_ref())
    {
        Some(snap) => UstorServer::from_state(snap.state.clone()),
        None => UstorServer::new(n),
    };
    // Merge every shard's records at or past the seed's coverage into
    // the one global order and demand it consecutive: each global
    // number was logged by exactly one owner, so a hole is a discarded
    // message and a repeat is a duplicated one.
    let mut merged: Vec<&(u64, LogRecord)> = scanned
        .iter()
        .flat_map(|s| s.records.iter())
        .filter(|(global, _)| *global >= base)
        .collect();
    merged.sort_by_key(|(global, _)| *global);
    let mut expected = base;
    let mut caches = vec![ReplyCache::default(); n];
    for (global, record) in merged {
        if *global < expected {
            return Err(StoreError::DuplicateRecord {
                expected,
                found: *global,
            });
        }
        if *global > expected {
            return Err(StoreError::SequenceGap {
                expected,
                found: *global,
            });
        }
        // Replay in global order, recapturing the replies of the
        // post-snapshot window for the engine's duplicate cache.
        replay_capturing(record.clone(), &mut state, &mut caches);
        expected += 1;
    }
    let resume = session_resume(&state, caches);
    Ok(RecoveredShards {
        state,
        global_next: expected,
        shards: scanned,
        resume,
    })
}

/// The sharded [`ServerBackend`]: `shards` independent `shard-<i>/`
/// store directories under one root, recovered together into one
/// [`ShardedServer`].
///
/// Building the backend either initializes a fresh layout (no shard
/// directories yet) or recovers the existing one — so handing the same
/// backend to a restarted process resumes the deployment where the
/// merged logs left it. The shard count is part of the layout: opening
/// an existing store with a different count is a
/// [`StoreError::ShardLayoutMismatch`], never a silent re-partitioning
/// (registers would change owners and the logs' global order would no
/// longer be reconstructible).
#[derive(Debug, Clone)]
pub struct ShardedBackend {
    /// Root directory; shards live in `shard-<i>/` beneath it.
    pub dir: PathBuf,
    /// Store configuration, applied to every shard (each shard runs its
    /// own group-commit batch and snapshot rotation on this policy).
    pub config: StoreConfig,
    /// Number of shards — fixed for the lifetime of the store.
    pub shards: usize,
    /// Run each shard on its own worker thread (the serving
    /// configuration); inline (deterministic) otherwise.
    pub threaded: bool,
    /// **Opt-in repair**: before strict recovery, truncate every
    /// shard's log to the longest globally-consistent prefix (dropping
    /// torn tails and any records past the first global hole). This is
    /// the sharded analogue of
    /// [`truncate_tail_records`] — an
    /// explicit operator decision, never a default, because discarding
    /// a suffix is indistinguishable from the rollback attack and
    /// clients will flag the recovered state accordingly.
    pub repair: bool,
}

impl ShardedBackend {
    /// A backend rooted at `dir` with `shards` shards (strict recovery,
    /// no repair).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(
        dir: impl Into<PathBuf>,
        config: StoreConfig,
        shards: usize,
        threaded: bool,
    ) -> Self {
        assert!(shards > 0, "a sharded store has at least one shard");
        ShardedBackend {
            dir: dir.into(),
            config,
            shards,
            threaded,
            repair: false,
        }
    }

    /// How many `shard-<i>/` directories currently exist under `dir`
    /// (counted from 0 up to the first missing index).
    fn existing_shards(&self) -> usize {
        (0..)
            .take_while(|i| shard_dir(&self.dir, *i).is_dir())
            .count()
    }

    /// Opens the store: fresh initialization if no shard directories
    /// exist, merged recovery otherwise. Returns the ready
    /// [`ShardedServer`], sequencing resumed at the first global number
    /// the logs have not seen.
    ///
    /// # Errors
    ///
    /// Structured [`StoreError`]s for layout or recovery anomalies, and
    /// file-system errors.
    pub fn open(&self, n: usize) -> Result<ShardedServer, StoreError> {
        std::fs::create_dir_all(&self.dir)?;
        let existing = self.existing_shards();
        if existing == 0 {
            return self.initialize(n);
        }
        if existing != self.shards {
            return Err(StoreError::ShardLayoutMismatch {
                expected: self.shards,
                found: existing,
            });
        }
        if self.repair {
            self.repair_to_consistent_prefix(n)?;
        }
        let recovered = recover_shards(&self.dir, self.shards, n)?;
        let members: Vec<Box<dyn ShardMember>> = recovered
            .shards
            .into_iter()
            .enumerate()
            .map(|(shard, s)| {
                Box::new(ShardStore::assemble(
                    shard,
                    &shard_dir(&self.dir, shard),
                    self.config.clone(),
                    recovered.state.clone(),
                    s.wal,
                    recovered.global_next,
                )) as Box<dyn ShardMember>
            })
            .collect();
        Ok(self
            .deploy(n, members)
            .resumed_at(recovered.global_next)
            .with_resume(recovered.resume))
    }

    fn initialize(&self, n: usize) -> Result<ShardedServer, StoreError> {
        let mut members: Vec<Box<dyn ShardMember>> = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let sdir = shard_dir(&self.dir, shard);
            std::fs::create_dir_all(&sdir)?;
            let wal = Wal::create(&sdir, n, 0, self.config.sync())?;
            members.push(Box::new(ShardStore::assemble(
                shard,
                &sdir,
                self.config.clone(),
                UstorServer::new(n),
                wal,
                0,
            )));
        }
        Ok(self.deploy(n, members))
    }

    fn deploy(&self, n: usize, members: Vec<Box<dyn ShardMember>>) -> ShardedServer {
        if self.threaded {
            ShardedServer::threaded(n, members)
        } else {
            ShardedServer::inline(n, members)
        }
    }

    /// Truncates every shard's log to the longest globally-consistent
    /// prefix: tolerant-scans each log, finds the first global sequence
    /// number missing from the union (starting at the deepest snapshot
    /// coverage), and drops every record at or past it — plus any torn
    /// tail bytes. Returns the cut position (first discarded global
    /// number). A store with no anomalies is untouched.
    ///
    /// # Errors
    ///
    /// Snapshot and header problems are not repairable here and
    /// propagate; so does any file-system error.
    pub fn repair_to_consistent_prefix(&self, n: usize) -> Result<u64, StoreError> {
        let mut coverage = 0u64;
        // (shard, valid records' global seqs, in log order)
        let mut globals: Vec<Vec<u64>> = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let sdir = shard_dir(&self.dir, shard);
            if let Some(snap) = read_snapshot(&sdir)? {
                if snap.n != n {
                    return Err(StoreError::ClientCountMismatch {
                        expected: n,
                        found: snap.n,
                    });
                }
                let Some(global) = snap.global_next_seq else {
                    return Err(StoreError::UnshardedSnapshot { shard });
                };
                coverage = coverage.max(global);
            }
            let (contents, _anomaly) = Wal::scan_prefix(&sdir.join(WAL_FILE))?;
            let mut seqs = Vec::with_capacity(contents.records.len());
            for scanned in contents.records {
                let Some(global) = scanned.record.global_seq() else {
                    return Err(StoreError::UnroutedRecord {
                        shard,
                        seq: scanned.seq,
                    });
                };
                seqs.push(global);
            }
            globals.push(seqs);
        }
        // First global number nobody logged — everything past it is
        // unreachable for replay and must go.
        let mut have: Vec<u64> = globals.iter().flatten().copied().collect();
        have.sort_unstable();
        let mut cut = coverage;
        for g in have {
            if g == cut {
                cut += 1;
            }
        }
        for (shard, seqs) in globals.iter().enumerate() {
            // Appends happen in global order, so the doomed records form
            // a tail of the local log.
            let doomed = seqs.iter().filter(|g| **g >= cut).count();
            truncate_tail_records(&shard_dir(&self.dir, shard), doomed)?;
        }
        Ok(cut)
    }
}

impl ServerBackend for ShardedBackend {
    fn build(&self, n: usize) -> std::io::Result<Box<dyn Server + Send>> {
        let server = self.open(n)?;
        Ok(Box::new(server))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{clients, run_op, scratch_dir};
    use faust_types::Value;

    fn no_sync() -> StoreConfig {
        StoreConfig {
            durability: Durability::Never,
            snapshot_every: 0,
        }
    }

    fn backend(dir: &Path, shards: usize) -> ShardedBackend {
        ShardedBackend::new(dir, no_sync(), shards, false)
    }

    /// One full read op; returns what the read observed.
    fn run_read(
        server: &mut dyn Server,
        client: &mut faust_ustor::UstorClient,
        target: ClientId,
    ) -> Option<Option<Value>> {
        let id = client.id();
        let submit = client.begin_read(target).unwrap();
        let mut replies = server.on_submit(id, submit);
        if replies.is_empty() {
            replies = server.flush(true);
        }
        let (_, reply) = replies
            .into_iter()
            .find(|(to, _)| *to == id)
            .expect("one reply for the submitter");
        let (commit, done) = client.handle_reply(reply).expect("correct server");
        server.on_commit(id, commit.expect("immediate mode"));
        done.read_value
    }

    /// Writes one value per client and reads the left neighbour's.
    fn workload(server: &mut dyn Server, cs: &mut [faust_ustor::UstorClient], rounds: u64) {
        let n = cs.len();
        for round in 0..rounds {
            for i in 0..n {
                let submit = cs[i].begin_write(Value::unique(i as u32, round)).unwrap();
                run_op(server, &mut cs[i], submit);
            }
        }
        for i in 0..n {
            let target = ClientId::new(((i + n - 1) % n) as u32);
            let submit = cs[i].begin_read(target).unwrap();
            run_op(server, &mut cs[i], submit);
        }
    }

    #[test]
    fn sharded_store_survives_restart() {
        let dir = scratch_dir("sharded-restart");
        let n = 3;
        let backend = backend(&dir, 2);
        let mut server = backend.open(n).unwrap();
        let mut cs = clients(n, b"sharded-restart");
        workload(&mut server, &mut cs, 2);
        assert!(server.wedge_reason().is_none());
        drop(server); // crash

        // Same backend, new process: the merged recovery resumes the
        // schedule and the clients' version vectors accept it.
        let mut server = backend.open(n).unwrap();
        let read = run_read(&mut server, &mut cs[0], ClientId::new(1));
        assert_eq!(read, Some(Some(Value::unique(1, 1))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_snapshots_rotate_and_recovery_uses_the_deepest() {
        let dir = scratch_dir("sharded-snap");
        let n = 4;
        let config = StoreConfig {
            durability: Durability::Never,
            snapshot_every: 3,
        };
        let backend = ShardedBackend::new(&dir, config, 4, false);
        let mut server = backend.open(n).unwrap();
        let mut cs = clients(n, b"sharded-snap");
        workload(&mut server, &mut cs, 3);
        drop(server);
        // At least one shard rotated its log behind a snapshot.
        let rotated = (0..4)
            .filter(|i| {
                shard_dir(&dir, *i)
                    .join(crate::snapshot::SNAPSHOT_FILE)
                    .exists()
            })
            .count();
        assert!(rotated > 0, "some shard snapshotted");
        // Recovery seeds from the deepest snapshot and replays the rest.
        let mut server = backend.open(n).unwrap();
        let read = run_read(&mut server, &mut cs[1], ClientId::new(0));
        assert_eq!(read, Some(Some(Value::unique(0, 2))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_withholds_until_a_shard_flush() {
        let dir = scratch_dir("sharded-group");
        let config = StoreConfig {
            durability: Durability::Group {
                max_records: 100,
                max_wait: std::time::Duration::from_secs(3600),
            },
            snapshot_every: 0,
        };
        let backend = ShardedBackend::new(&dir, config, 2, false);
        let mut server = backend.open(2).unwrap();
        let mut cs = clients(2, b"sharded-group");
        let submit = cs[0].begin_write(Value::from("held")).unwrap();
        assert!(
            server.on_submit(ClientId::new(0), submit).is_empty(),
            "reply withheld until the owning shard's batch fsync"
        );
        assert!(server.flush_deadline().is_some());
        let released = server.flush(true);
        assert_eq!(released.len(), 1);
        cs[0]
            .handle_reply(released.into_iter().next().unwrap().1)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_recovery_answers_a_resent_submit_byte_identically() {
        use faust_types::{UstorMsg, Wire};
        let dir = scratch_dir("sharded-resume");
        let n = 2;
        let backend = backend(&dir, 2);
        let mut server = backend.open(n).unwrap();
        let mut cs = clients(n, b"sharded-resume");
        let submit = cs[0].begin_write(Value::from("v")).unwrap();
        run_op(&mut server, &mut cs[0], submit);
        // The ack of this read is lost with the connection.
        let read = cs[0].begin_read(ClientId::new(1)).unwrap();
        let (_, original) = server
            .on_submit(ClientId::new(0), read.clone())
            .pop()
            .unwrap();
        drop(server); // crash

        // A restarted deployment, behind a full engine, recognises the
        // resent SUBMIT as a duplicate and re-issues the same bytes.
        let recovered = backend.build(n).unwrap();
        let mut engine = faust_ustor::ServerEngine::new(n, recovered);
        engine.enqueue(ClientId::new(0), UstorMsg::Submit(read));
        engine.process_all();
        let (to, replayed) = engine.poll_output().expect("replayed reply");
        assert_eq!(to, ClientId::new(0));
        assert_eq!(replayed.encode(), UstorMsg::Reply(original).encode());
        assert_eq!(engine.stats().duplicates, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_count_is_part_of_the_layout() {
        let dir = scratch_dir("sharded-layout");
        drop(backend(&dir, 2).open(2).unwrap());
        for wrong in [1usize, 3] {
            assert!(matches!(
                backend(&dir, wrong).open(2).unwrap_err(),
                StoreError::ShardLayoutMismatch { expected, .. } if expected == wrong
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_shard_is_a_gap_strictly_and_a_rollback_under_repair() {
        let dir = scratch_dir("sharded-truncate");
        let n = 2;
        let backend = backend(&dir, 2);
        let mut server = backend.open(n).unwrap();
        let mut cs = clients(n, b"sharded-truncate");
        workload(&mut server, &mut cs, 3);
        drop(server);

        // The rollback attack against one shard: drop its last records.
        truncate_tail_records(&shard_dir(&dir, 1), 2).unwrap();

        // Strict recovery refuses: the merged global order has a hole.
        assert!(matches!(
            backend.open(n).unwrap_err(),
            StoreError::SequenceGap { .. }
        ));

        // Explicit repair cuts EVERY shard back to the longest
        // consistent prefix and recovery then succeeds...
        let repairing = ShardedBackend {
            repair: true,
            ..backend.clone()
        };
        let mut server = repairing.open(n).unwrap();
        // ...into a rolled-back state: the fail-aware client, whose
        // version vector remembers the discarded suffix, detects it.
        let submit = cs[0].begin_read(ClientId::new(1)).unwrap();
        let mut replies = server.on_submit(ClientId::new(0), submit);
        if replies.is_empty() {
            replies = server.flush(true);
        }
        let (_, reply) = replies.pop().expect("server answers");
        assert!(
            cs[0].handle_reply(reply).is_err(),
            "client flags the repaired (rolled-back) history"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_rewrites_a_v1_shard_log_as_v1() {
        use crate::log::Framing;
        let dir = scratch_dir("sharded-repair-v1");
        let n = 2;
        let backend = backend(&dir, 2);
        drop(backend.open(n).unwrap());
        // Age the (still empty) shard logs to format v1: reopened, they
        // take appends in SHA-256 framing like any pre-v2 store.
        let wal_path = |shard| shard_dir(&dir, shard).join(WAL_FILE);
        let framing = |shard| Wal::scan(&wal_path(shard)).unwrap().header.framing;
        for shard in 0..2 {
            let mut header = std::fs::read(wal_path(shard)).unwrap();
            header[8..12].copy_from_slice(&Framing::V1.version().to_be_bytes());
            std::fs::write(wal_path(shard), &header).unwrap();
        }
        let mut server = backend.open(n).unwrap();
        let mut cs = clients(n, b"sharded-repair-v1");
        workload(&mut server, &mut cs, 3);
        drop(server);
        truncate_tail_records(&shard_dir(&dir, 1), 2).unwrap();

        let cut = backend.repair_to_consistent_prefix(n).unwrap();
        assert!(cut > 0, "a prefix survives");
        assert_eq!((framing(0), framing(1)), (Framing::V1, Framing::V1));
        // And the repaired v1 logs recover strictly.
        backend.open(n).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_on_a_clean_store_is_a_no_op() {
        let dir = scratch_dir("sharded-repair-noop");
        let n = 2;
        let backend = backend(&dir, 2);
        let mut server = backend.open(n).unwrap();
        let mut cs = clients(n, b"sharded-repair-noop");
        workload(&mut server, &mut cs, 2);
        drop(server);
        let repairing = ShardedBackend {
            repair: true,
            ..backend.clone()
        };
        // Nothing truncated; the same clients keep going happily.
        let mut server = repairing.open(n).unwrap();
        let read = run_read(&mut server, &mut cs[1], ClientId::new(0));
        assert_eq!(read, Some(Some(Value::unique(0, 1))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
