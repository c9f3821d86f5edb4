//! Format upgrade: a store directory an older build wrote — `fixtures/v1/`
//! (SHA-256 record and snapshot checksums), `fixtures/v2/` (XXH64, every
//! COMMIT in full), `fixtures/v3/` (COMMIT deltas, every `SVER` entry of
//! the snapshot in full) and `fixtures/v4/` (log v4, snapshot v5: `SVER`
//! chained, every delta's entries in the fixed layout), all produced from
//! `fixtures/script.rs` — recovers to exactly the state the same script
//! produces on this tree, keeps serving, and turns into current-format
//! files (log v5, snapshot v6) at its next snapshot — with nothing to
//! configure. An older log keeps every COMMIT it takes in full until that
//! rotation.

use faust_store::codec::{encode_state, SverLayout};
use faust_store::log::{Framing, RECORD_OVERHEAD, WAL_FILE, WAL_MAGIC};
use faust_store::snapshot::{read_snapshot, SNAPSHOT_FILE, SNAPSHOT_VERSION};
use faust_store::testutil;
use faust_store::{Durability, LogCursor, PersistentServer, StoreConfig};
use faust_types::{ClientId, EntryLayout, SubmitMsg, Value, Wire};
use faust_ustor::{CommitMode, Server, UstorClient};
use std::path::{Path, PathBuf};

#[path = "fixtures/script.rs"]
mod script;

fn fixture_copy(version: &str) -> PathBuf {
    let dir = testutil::scratch_dir(&format!("upgrade-{version}"));
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(version);
    for file in [WAL_FILE, SNAPSHOT_FILE] {
        std::fs::copy(fixture.join(file), dir.join(file)).unwrap();
    }
    dir
}

fn framing(dir: &Path) -> Framing {
    LogCursor::open(dir).unwrap().header().framing
}

fn snapshot_version(dir: &Path) -> u32 {
    let bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    u32::from_be_bytes(bytes[8..12].try_into().unwrap())
}

/// Bytes the log of `dir` saves by storing COMMITs as deltas.
fn delta_savings(dir: &Path) -> u64 {
    let overhead = framing(dir).overhead();
    LogCursor::open(dir)
        .unwrap()
        .map(Result::unwrap)
        .map(|r| (overhead + 8 + r.record.encoded_len() - r.span.len()) as u64)
        .sum()
}

/// Bytes the current format saves on the snapshot of `dir` by writing
/// `SVER` as a ≼-chain.
fn sver_savings(dir: &Path) -> u64 {
    let state = read_snapshot(dir, script::N).unwrap().unwrap().state;
    let len = |layout| {
        let mut bytes = Vec::new();
        encode_state(&state, layout, &mut bytes);
        bytes.len() as u64
    };
    len(SverLayout::Full) - len(SverLayout::Chain(EntryLayout::Compact))
}

/// The fixture `version`, written in `(framing, snapshot version)`,
/// against the same script run by this tree.
fn recovers_identically_serves_and_rotates(version: &str, old_format: (Framing, u32)) {
    let old = fixture_copy(version);
    let new = testutil::scratch_dir(&format!("upgrade-{version}-twin"));
    let (mut twin, mut clients) = script::run(&new);
    assert_eq!((framing(&old), snapshot_version(&old)), old_format);
    assert_eq!(
        (framing(&new), snapshot_version(&new)),
        (Framing::CURRENT, SNAPSHOT_VERSION)
    );
    // Same history: the framing's difference on every record and on the
    // snapshot header, the bytes the current log's compact deltas save
    // beyond the old log's, and the `SVER` entries the current snapshot
    // chains — or, against a chain of fixed-layout entries, its one
    // delta's one entry with a digest: 45 bytes there, 41 compact.
    let len = |dir: &Path, file| std::fs::metadata(dir.join(file)).unwrap().len();
    let overhead = (old_format.0.overhead() - RECORD_OVERHEAD) as u64;
    assert!(
        delta_savings(&new) > delta_savings(&old),
        "the current log's deltas are smaller"
    );
    assert_eq!(
        len(&old, WAL_FILE) - len(&new, WAL_FILE),
        overhead * script::WAL_RECORDS + delta_savings(&new) - delta_savings(&old)
    );
    assert!(sver_savings(&new) > 0, "the current snapshot chains SVER");
    let snapshot_savings = match old_format.1 {
        5 => 4,
        _ => overhead + sver_savings(&new),
    };
    assert_eq!(
        len(&old, SNAPSHOT_FILE) - len(&new, SNAPSHOT_FILE),
        snapshot_savings
    );
    assert_eq!(
        read_snapshot(&old, script::N).unwrap(),
        read_snapshot(&new, script::N).unwrap(),
        "both snapshot versions decode to the same state"
    );

    let mut server = PersistentServer::recover(&old, script::N, script::config()).unwrap();
    assert_eq!(server.server(), twin.server(), "identical ServerState");
    assert_eq!(server.next_seq(), twin.next_seq());
    assert_eq!(server.wal_records(), script::WAL_RECORDS);

    // It keeps serving. The first record joins the old file in its own
    // version…
    let c0 = ClientId::new(0);
    let submit = clients[0]
        .begin_write(script::value(script::WRITES))
        .unwrap();
    let (_, reply) = server.on_submit(c0, submit.clone()).pop().unwrap();
    assert_eq!(twin.on_submit(c0, submit).pop().unwrap().1, reply);
    assert_eq!(framing(&old), old_format.0);
    assert_eq!(server.wal_records(), script::WAL_RECORDS + 1);
    // …and the COMMIT reaches the snapshot threshold: both files are
    // replaced, in the current format, by the ordinary rotation.
    let (commit, _) = clients[0].handle_reply(reply).unwrap();
    let commit = commit.expect("immediate mode");
    server.on_commit(c0, commit.clone());
    twin.on_commit(c0, commit);
    assert!(server.wedge_error().is_none());
    assert_eq!(server.wal_records(), 0, "rotated");
    assert_eq!(
        (framing(&old), snapshot_version(&old)),
        (Framing::CURRENT, SNAPSHOT_VERSION)
    );
    for file in [WAL_FILE, SNAPSHOT_FILE] {
        assert_eq!(
            std::fs::read(old.join(file)).unwrap(),
            std::fs::read(new.join(file)).unwrap(),
            "{file}: the upgraded store is byte-identical to one born current"
        );
    }

    // A client that never met the old incarnation reads the value
    // written before the upgrade's rotation, through a fresh recovery.
    let reference = server.server().clone();
    drop(server);
    let mut server = PersistentServer::recover(&old, script::N, script::config()).unwrap();
    assert_eq!(*server.server(), reference);
    let submit = clients[1].begin_read(c0).unwrap();
    let (_, reply) = server.on_submit(ClientId::new(1), submit).pop().unwrap();
    let (_, done) = clients[1].handle_reply(reply).expect("no violation");
    assert_eq!(done.read_value, Some(Some(script::value(script::WRITES))));
    std::fs::remove_dir_all(&old).ok();
    std::fs::remove_dir_all(&new).ok();
}

#[test]
fn v1_store_recovers_identically_serves_and_rotates_into_v3() {
    recovers_identically_serves_and_rotates("v1", (Framing::V1, 1));
}

#[test]
fn v2_store_recovers_identically_serves_and_rotates_into_v3() {
    recovers_identically_serves_and_rotates("v2", (Framing::V2, 3));
}

#[test]
fn v3_store_recovers_identically_serves_and_rotates_into_v5() {
    // The script piggybacks nothing, so the v3 log is the v4 one byte for
    // byte but for the header's version, 3 where that build wrote 4.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut v3 = std::fs::read(fixtures.join("v3").join(WAL_FILE)).unwrap();
    assert_eq!(v3[8..12], 3u32.to_be_bytes());
    v3[8..12].copy_from_slice(&4u32.to_be_bytes());
    assert_eq!(
        v3,
        std::fs::read(fixtures.join("v4").join(WAL_FILE)).unwrap()
    );
    recovers_identically_serves_and_rotates("v3", (Framing::V3, 3));
}

#[test]
fn v4_store_recovers_identically_serves_and_rotates_into_v6() {
    recovers_identically_serves_and_rotates("v4", (Framing::V4, 5));
}

/// Runs one operation of `client` through every server in `servers`:
/// the same SUBMIT to each, the same REPLY from each, and the COMMIT, if
/// the client sends one on its own, to each.
fn run_on_all(servers: &mut [PersistentServer], client: &mut UstorClient, submit: SubmitMsg) {
    let id = client.id();
    let replies: Vec<_> = servers
        .iter_mut()
        .map(|server| server.on_submit(id, submit.clone()).pop().unwrap().1)
        .collect();
    assert!(replies.windows(2).all(|w| w[0] == w[1]), "the same REPLY");
    let (commit, _) = client.handle_reply(replies[0].clone()).unwrap();
    for server in servers.iter_mut().filter(|_| commit.is_some()) {
        server.on_commit(id, commit.clone().unwrap());
    }
}

#[test]
fn a_v3_log_keeps_its_piggybacks_in_full_and_rotates_into_v4() {
    // A store an older build began — an empty v3 log, its header as that
    // build's `Wal::create` wrote it — and one born current run the same
    // piggybacking script. The v3 file takes every COMMIT in full, a
    // piggybacked one as any other, since this build writes no v3 delta;
    // at the snapshot both rotate into log v5, and from then on the two
    // stores are byte-identical.
    let (n, every) = (2, 12);
    let config = StoreConfig {
        durability: Durability::Never,
        snapshot_every: every,
    };
    let old = testutil::scratch_dir("upgrade-v3-piggyback");
    let new = testutil::scratch_dir("upgrade-v3-piggyback-twin");
    let mut header = WAL_MAGIC.to_vec();
    header.extend(3u32.to_be_bytes());
    header.extend((n as u32).to_be_bytes());
    header.extend(0u64.to_be_bytes());
    std::fs::write(old.join(WAL_FILE), header).unwrap();
    let mut servers =
        [&old, &new].map(|dir| PersistentServer::open(dir, n, config.clone()).unwrap());
    let mut clients = testutil::clients(n, b"upgrade-piggyback");
    clients[0].set_commit_mode(CommitMode::Piggyback);
    let mut round = 0;
    let mut op = |servers: &mut [PersistentServer], clients: &mut [UstorClient]| {
        let submit = clients[0].begin_write(Value::unique(0, round)).unwrap();
        run_on_all(servers, &mut clients[0], submit);
        let submit = clients[1].begin_read(ClientId::new(0)).unwrap();
        run_on_all(servers, &mut clients[1], submit);
        round += 1;
    };
    // Client 0's write and client 1's read and COMMIT: three records per
    // round, four rounds short of the snapshot.
    for _ in 0..3 {
        op(&mut servers, &mut clients);
    }
    assert_eq!(servers[0].wal_records(), every - 3);
    assert_eq!(
        [&old, &new].map(|dir| framing(dir)),
        [Framing::V3, Framing::CURRENT]
    );
    let scanned = [&old, &new].map(|dir| {
        LogCursor::open(dir)
            .unwrap()
            .map(Result::unwrap)
            .collect::<Vec<_>>()
    });
    let records = |i: usize| scanned[i].iter().map(|r| &r.record).collect::<Vec<_>>();
    assert_eq!(records(0), records(1), "the same records");
    // Only COMMITs after the file's first COMMIT differ: in full in v3,
    // deltas in v5. A piggybacked one is a count and one entry (4 +
    // 41 bytes) where v3 has the option tag and both entries (1 + 4 + 2 ·
    // 8 + 4 + 2 · 33); client 1's own is a count and both entries (4 +
    // 41 + 34) against the full version and the COMMIT's tag.
    let saved: Vec<usize> = scanned[0]
        .iter()
        .zip(&scanned[1])
        .map(|(v3, v5)| v3.span.len() - v5.span.len())
        .collect();
    assert_eq!(saved, [0, 0, 0, 46, 0, 11, 46, 0, 11]);
    // The fourth round's last record reaches the threshold: both rotate.
    op(&mut servers, &mut clients);
    assert_eq!(
        servers.each_ref().map(|s| s.wal_records()),
        [0, 0],
        "rotated"
    );
    assert_eq!(framing(&old), Framing::CURRENT);
    for _ in 0..2 {
        op(&mut servers, &mut clients);
    }
    for file in [WAL_FILE, SNAPSHOT_FILE] {
        assert_eq!(
            std::fs::read(old.join(file)).unwrap(),
            std::fs::read(new.join(file)).unwrap(),
            "{file}: the upgraded store is byte-identical to one born current"
        );
    }
    drop(servers);
    std::fs::remove_dir_all(&old).ok();
    std::fs::remove_dir_all(&new).ok();
}
