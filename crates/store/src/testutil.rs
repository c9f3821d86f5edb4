//! Shared helpers for tests and benchmarks: scratch directories (the
//! repository vendors no `tempfile` crate), the synchronous op-driving
//! shorthand every store test needs, the mutation harness the log,
//! snapshot and session-file sweeps share, and the contract every
//! [`Sealed`] format keeps.

use crate::file::Sealed;
use crate::StoreError;
use faust_crypto::sig::KeySet;
use faust_types::{ClientId, SubmitMsg, WireError};
use faust_ustor::{Server, UstorClient};
use std::fmt::Debug;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Creates a fresh, empty directory under the system temp dir, unique to
/// this process and call. Callers remove it when done (`remove_dir_all`);
/// a leaked directory under `$TMPDIR` is harmless.
///
/// # Panics
///
/// Panics if the directory cannot be created — tests cannot run without
/// a writable temp dir, so failing loudly beats limping on.
pub fn scratch_dir(label: &str) -> PathBuf {
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("faust-store-{label}-{}-{id}", std::process::id()));
    // A directory a dead process with the same id leaked would otherwise
    // hand its files to this caller.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Builds `n` USTOR clients with HMAC keys derived from `seed` — the
/// setup boilerplate of every test/bench that drives a server directly.
pub fn clients(n: usize, seed: &[u8]) -> Vec<UstorClient> {
    let keys = KeySet::generate(n, seed);
    (0..n)
        .map(|i| {
            UstorClient::new(
                ClientId::new(i as u32),
                n,
                keys.keypair(i as u32).expect("generated").clone(),
                keys.registry(),
            )
        })
        .collect()
}

/// Runs one full synchronous operation (submit → reply → commit)
/// through any server.
///
/// Flush-aware: under `Durability::Group` the server withholds the
/// reply until its batch fsync, so when `on_submit` returns nothing a
/// forced [`Server::flush`] is the batch boundary — a synchronous
/// driver *is* the whole batch. (Before this, every `run_op`-style
/// helper panicked on group-commit servers.)
///
/// # Panics
///
/// Panics if the server misbehaves — these helpers drive *correct*
/// servers; adversarial paths assert on errors explicitly.
pub fn run_op(server: &mut dyn Server, client: &mut UstorClient, submit: SubmitMsg) {
    let id = client.id();
    let mut replies = server.on_submit(id, submit);
    if replies.is_empty() {
        replies = server.flush(true);
    }
    let (_, reply) = replies
        .into_iter()
        .find(|(to, _)| *to == id)
        .expect("one reply for the submitter");
    let (commit, _) = client.handle_reply(reply).expect("correct server");
    server.on_commit(id, commit.expect("immediate mode"));
}

/// The mutation harness, which lives in `faust-types` (below every crate
/// that sweeps bytes with it); re-exported for this crate's users.
pub use faust_types::testutil::mutations;

/// A [`Sealed`] format's first half of the contract, its file at `path`:
/// an absent file reads as `None`, and a written payload reads back whole,
/// with what the written version selects, and no temp file left behind.
///
/// # Panics
///
/// Panics where `format` breaks the contract.
pub fn sealed_roundtrip_and_absence<T: Copy + Debug + PartialEq>(format: &Sealed<T>, path: &Path) {
    let (_, _, selected) = format.versions[0];
    assert_eq!(format.read(path).unwrap(), None, "{path:?}: absent");
    let payload = b"resumable state bytes";
    format
        .write(path, true, |got, out| {
            assert_eq!(got, selected);
            out.extend_from_slice(payload);
        })
        .unwrap();
    assert_eq!(
        format.read(path).unwrap(),
        Some((selected, payload.to_vec())),
        "{path:?}: round trip"
    );
    assert!(
        !path.with_extension("tmp").exists(),
        "{path:?}: temp file left behind"
    );
}

/// The second half: with and without sync, a write replaces the file at
/// `path` whole, leaves no temp file, and lays it out as `magic | version
/// | payload_len | checksum | payload`, checked byte by byte.
///
/// # Panics
///
/// Panics where `format` breaks the contract.
pub fn sealed_overwrite<T: Copy + Debug + PartialEq>(format: &Sealed<T>, path: &Path) {
    let (version, checksum, selected) = format.versions[0];
    for sync in [true, false] {
        format
            .write(path, sync, |_, out| out.extend_from_slice(b"old"))
            .unwrap();
        let payload = b"newer state bytes";
        format
            .write(path, sync, |_, out| out.extend_from_slice(payload))
            .unwrap();
        assert_eq!(
            format.read(path).unwrap(),
            Some((selected, payload.to_vec())),
            "{path:?}: the newer file, whole"
        );
        assert!(
            !path.with_extension("tmp").exists(),
            "{path:?}: temp file left behind"
        );
        let mut stored = vec![0; checksum.len()];
        checksum.write(payload, &mut stored);
        let mut expected = format.magic.to_vec();
        expected.extend_from_slice(&version.to_be_bytes());
        expected.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        expected.extend_from_slice(&stored);
        expected.extend_from_slice(payload);
        assert_eq!(fs::read(path).unwrap(), expected, "{path:?}: layout");
    }
}

/// The damage table: a payload flip, a cut in the payload, the prefix or
/// the checksum, a flipped first or fourth magic byte, an unknown version
/// and a trailing byte each read as their own typed [`StoreError`] naming
/// `format.file`. Writes a fresh file at `path` first.
///
/// # Panics
///
/// Panics where `format` breaks the contract.
pub fn sealed_damage<T: Copy + Debug + PartialEq>(format: &Sealed<T>, path: &Path) {
    let (version, _, _) = format.versions[0];
    format
        .write(path, false, |_, out| {
            out.extend_from_slice(b"some sealed payload")
        })
        .unwrap();
    let good = fs::read(path).unwrap();
    let file = format.file;
    let edit = |f: fn(&mut Vec<u8>)| {
        let mut bad = good.clone();
        f(&mut bad);
        bad
    };
    let cases = [
        (
            "payload flip",
            edit(|b| *b.last_mut().unwrap() ^= 0x01),
            StoreError::Checksum { file },
        ),
        (
            "cut in the payload",
            good[..good.len() - 4].to_vec(),
            StoreError::Corrupt {
                file,
                error: WireError::Truncated,
            },
        ),
        (
            "cut in the prefix",
            good[..10].to_vec(),
            StoreError::TruncatedHeader { file },
        ),
        (
            // Magic, version and length, then 4 bytes of the checksum.
            "cut in the checksum",
            good[..8 + 4 + 4 + 4].to_vec(),
            StoreError::TruncatedHeader { file },
        ),
        (
            "first magic byte",
            edit(|b| b[0] ^= 0xFF),
            StoreError::BadMagic { file },
        ),
        (
            "fourth magic byte",
            edit(|b| b[3] ^= 0xFF),
            StoreError::BadMagic { file },
        ),
        (
            "version",
            edit(|b| b[8] = 0xEE),
            StoreError::UnsupportedVersion {
                file,
                version: (0xEE << 24) | version,
            },
        ),
        (
            "trailing byte",
            edit(|b| b.push(0)),
            StoreError::Corrupt {
                file,
                error: WireError::TrailingBytes(1),
            },
        ),
    ];
    for (damage, bytes, expected) in cases {
        fs::write(path, bytes).unwrap();
        let err = format.read(path).unwrap_err();
        assert_eq!(
            format!("{err:?}"),
            format!("{expected:?}"),
            "{path:?}, {damage}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faust_types::Value;

    #[test]
    fn run_op_is_flush_aware_under_group_commit() {
        // Regression (PR-4 footgun): a synchronous `run_op` against a
        // group-commit server used to panic — `on_submit` withholds the
        // reply until the batch fsync. The helper now forces the flush
        // and completes the op; the records are durable afterwards.
        use crate::{Durability, PersistentServer, StoreConfig};
        let dir = scratch_dir("run-op-group");
        let config = StoreConfig {
            durability: Durability::Group {
                max_records: 1_000,
                max_wait: std::time::Duration::from_secs(3600),
            },
            snapshot_every: 0,
        };
        let mut server = PersistentServer::open(&dir, 1, config.clone()).unwrap();
        let mut cs = clients(1, b"run-op-group");
        for round in 0..3u64 {
            let submit = cs[0].begin_write(Value::unique(0, round)).unwrap();
            run_op(&mut server, &mut cs[0], submit);
        }
        // 3 submits + 3 commits acknowledged; the commits' appends ride
        // the next forced flush or recovery scan, the submits are all
        // fsync-released.
        assert_eq!(server.next_seq(), 6);
        drop(server);
        let recovered = PersistentServer::recover(&dir, 1, config).unwrap();
        assert_eq!(recovered.next_seq(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scratch_dirs_are_distinct_and_empty() {
        let a = scratch_dir("x");
        let b = scratch_dir("x");
        assert_ne!(a, b);
        assert_eq!(std::fs::read_dir(&a).unwrap().count(), 0);
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }
}
