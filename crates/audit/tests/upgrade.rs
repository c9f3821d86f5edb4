//! The exporter reads a store directory through `faust-store`'s cursor
//! and snapshot reader, so the store's format must be invisible in what it
//! emits: the directories older builds wrote (`crates/store/tests/fixtures/`
//! `v1`, SHA-256 record and snapshot checksums; `v2`, XXH64 with every
//! COMMIT in full; `v3`, COMMIT deltas but every snapshot `SVER` entry in
//! full; `v4`, `SVER` as a ≼-chain, every delta's entries in the fixed
//! layout) and a current-format directory written by the same script
//! (COMMITs as deltas, `SVER` as a ≼-chain, compact entries) export to
//! byte-identical `FAUSTHIS` — the container whose own SHA-256 framing
//! did not change — and all certify.

use faust_audit::{audit, export_store_dir, AuditVerdict};
use faust_crypto::sig::KeySet;
use faust_crypto::SigScheme;
use faust_store::testutil;
use std::path::Path;

#[path = "../../store/tests/fixtures/script.rs"]
mod script;

#[test]
fn v1_v2_and_v3_store_directories_export_byte_identical_histories() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures");
    let current = testutil::scratch_dir("audit-upgrade-v3");
    drop(script::run(&current));
    let new = export_store_dir(&current, SigScheme::Hmac, None).unwrap();
    let registry = KeySet::generate(script::N, b"faust-cli").registry();
    let report = audit(&new, &registry).unwrap();
    assert!(
        matches!(report.verdict, AuditVerdict::Certified { .. }),
        "{:?}",
        report.verdict
    );

    for version in ["v1", "v2", "v3", "v4"] {
        let old = fixtures.join(version);
        let files =
            |dir: &Path| ["wal.bin", "snapshot.bin"].map(|f| std::fs::read(dir.join(f)).unwrap());
        assert_ne!(
            files(&old),
            files(&current),
            "{version}: the two directories really are in different formats"
        );
        let exported = export_store_dir(&old, SigScheme::Hmac, None).unwrap();
        assert_eq!(exported.encode(), new.encode(), "{version}");
    }
    std::fs::remove_dir_all(&current).ok();
}
