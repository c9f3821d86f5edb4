//! Format upgrade: a store directory an older build wrote — `fixtures/v1/`
//! (SHA-256 record and snapshot checksums), `fixtures/v2/` (XXH64, every
//! COMMIT in full) and `fixtures/v3/` (COMMIT deltas, every `SVER` entry
//! of the snapshot in full), all produced from `fixtures/script.rs` —
//! recovers to exactly the state the same script produces on this tree,
//! keeps serving, and turns into current-format files (log v3, snapshot
//! v5) at its next snapshot — with nothing to configure.

use faust_store::codec::{encode_state, SverLayout};
use faust_store::log::{Framing, RECORD_OVERHEAD, WAL_FILE};
use faust_store::snapshot::{read_snapshot, SNAPSHOT_FILE, SNAPSHOT_VERSION};
use faust_store::testutil;
use faust_store::{LogCursor, PersistentServer};
use faust_types::{ClientId, Wire};
use faust_ustor::Server;
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

/// Bytes the current format saves on the log of `dir` by storing COMMITs
/// as deltas.
fn delta_savings(dir: &Path) -> u64 {
    LogCursor::open(dir)
        .unwrap()
        .map(Result::unwrap)
        .map(|r| (RECORD_OVERHEAD + 8 + r.record.encoded_len() - r.span.len()) as u64)
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
    len(SverLayout::Full) - len(SverLayout::Chain)
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
    // snapshot header, the COMMITs the current log stores as deltas
    // (unless the old one did too), and the `SVER` entries the current
    // snapshot chains (no fixture's snapshot does).
    let len = |dir: &Path, file| std::fs::metadata(dir.join(file)).unwrap().len();
    let overhead = (old_format.0.overhead() - RECORD_OVERHEAD) as u64;
    assert!(delta_savings(&new) > 0, "the current log holds deltas");
    let log_savings = if old_format.0.commit_deltas() {
        0
    } else {
        delta_savings(&new)
    };
    assert_eq!(
        len(&old, WAL_FILE) - len(&new, WAL_FILE),
        overhead * script::WAL_RECORDS + log_savings
    );
    assert!(sver_savings(&new) > 0, "the current snapshot chains SVER");
    assert_eq!(
        len(&old, SNAPSHOT_FILE) - len(&new, SNAPSHOT_FILE),
        overhead + sver_savings(&new)
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
    // Its log is already the current format, byte for byte; only the
    // snapshot changes.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3");
    let current = testutil::scratch_dir("upgrade-v3-log");
    drop(script::run(&current));
    assert_eq!(
        std::fs::read(fixture.join(WAL_FILE)).unwrap(),
        std::fs::read(current.join(WAL_FILE)).unwrap()
    );
    std::fs::remove_dir_all(&current).ok();
    recovers_identically_serves_and_rotates("v3", (Framing::V3, 3));
}
