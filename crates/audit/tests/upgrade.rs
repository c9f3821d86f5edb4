//! The exporter reads a store directory through `faust-store`'s cursor
//! and snapshot reader, so the store's checksum format must be invisible
//! in what it emits: the pre-v2 fixture (`crates/store/tests/fixtures/v1`,
//! SHA-256 record and snapshot checksums) and a current-format directory
//! written by the same script export to byte-identical `FAUSTHIS` — the
//! container whose own SHA-256 framing did not change — and both certify.

use faust_audit::{audit, export_store_dir, AuditVerdict};
use faust_crypto::sig::KeySet;
use faust_crypto::SigScheme;
use faust_store::testutil;
use std::path::Path;

#[path = "../../store/tests/fixtures/script.rs"]
mod script;

#[test]
fn v1_and_v2_store_directories_export_byte_identical_histories() {
    let v1 = Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures/v1");
    let v2 = testutil::scratch_dir("audit-upgrade-v2");
    drop(script::run(&v2));
    assert_ne!(
        std::fs::read(v1.join("wal.bin")).unwrap(),
        std::fs::read(v2.join("wal.bin")).unwrap(),
        "the two directories really are in different formats"
    );

    let old = export_store_dir(&v1, SigScheme::Hmac, None).unwrap();
    let new = export_store_dir(&v2, SigScheme::Hmac, None).unwrap();
    assert_eq!(old.encode(), new.encode());

    let registry = KeySet::generate(script::N, b"faust-cli").registry();
    let report = audit(&old, &registry).unwrap();
    assert!(
        matches!(report.verdict, AuditVerdict::Certified { .. }),
        "{:?}",
        report.verdict
    );
    std::fs::remove_dir_all(&v2).ok();
}
