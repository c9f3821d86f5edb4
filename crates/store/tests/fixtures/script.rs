// The seeded script behind `fixtures/v1/`, `fixtures/v2/` and
// `fixtures/v3/`: store directories (`wal.bin` + `snapshot.bin`, n = 2)
// written by the last commit whose log and snapshot were
// SHA-256-checksummed (log v1), by the last one that logged every COMMIT
// in full (log v2) and by the last one that wrote every snapshot `SVER`
// entry in full (snapshot v3). The same
// script, run by the tree under test, is what the upgrade tests compare
// each recovered fixture against — so it must stay deterministic and
// must only use store API that every side has. `fixtures/README.md` says
// how the directories were produced.
//
// Included with `#[path]` by `tests/upgrade.rs` here, by
// `crates/audit/tests/upgrade.rs`, and by the one-off generator.
//
// Only client 0 ever operates, with the CLI's default key seed: a fresh
// `faust connect --id 1` can then join the recovered deployment (CI's
// upgrade smoke) without tripping over a past it has forgotten.

#![allow(dead_code)] // each includer uses a subset

use faust_crypto::sig::KeySet;
use faust_store::testutil::run_op;
use faust_store::{Durability, PersistentServer, StoreConfig};
use faust_types::{ClientId, Value};
use faust_ustor::UstorClient;
use std::path::Path;

/// Client count of the fixture.
pub const N: usize = 2;
/// Writes client 0 performs; write `k` stores `pre-upgrade-<k>`.
pub const WRITES: u64 = 7;
/// Records the script leaves in `wal.bin` behind its one snapshot.
pub const WAL_RECORDS: u64 = 2 * WRITES - SNAPSHOT_EVERY;
const SNAPSHOT_EVERY: u64 = 8;

/// The store configuration the script runs (and is recovered) under.
pub fn config() -> StoreConfig {
    StoreConfig {
        durability: Durability::Never,
        snapshot_every: SNAPSHOT_EVERY,
    }
}

/// The value write `k` stores.
pub fn value(k: u64) -> Value {
    Value::from(format!("pre-upgrade-{k}").as_str())
}

/// Runs the script against a fresh store in `dir` and returns the server
/// as it stands plus both clients — client 1 untouched, client 0 with the
/// version the fixture's history gave it.
pub fn run(dir: &Path) -> (PersistentServer, Vec<UstorClient>) {
    let mut server = PersistentServer::open(dir, N, config()).expect("fresh store");
    let keys = KeySet::generate(N, b"faust-cli");
    let mut clients: Vec<UstorClient> = (0..N as u32)
        .map(|i| {
            UstorClient::new(
                ClientId::new(i),
                N,
                keys.keypair(i).expect("generated").clone(),
                keys.registry(),
            )
        })
        .collect();
    for k in 0..WRITES {
        let submit = clients[0].begin_write(value(k)).expect("idle client");
        run_op(&mut server, &mut clients[0], submit);
    }
    (server, clients)
}
