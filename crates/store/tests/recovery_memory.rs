//! Reading the log takes memory bounded by its largest record, not by
//! its length. Each test resets the process's resident-set high-water
//! mark (`5` → `/proc/self/clear_refs`), walks a log, and bounds how far
//! the mark rose above the resident set it started from. This is a test
//! binary of its own, and every test in it holds one lock while it runs,
//! so no other thread allocates during a measurement.

use faust_store::log::{Wal, MAX_RECORD_LEN, WAL_FILE};
use faust_store::testutil::{self, clients, run_op};
use faust_store::{Durability, LogCursor, PersistentServer, StoreConfig, StoreError};
use faust_types::Value;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

static MEASURING: Mutex<()> = Mutex::new(());

/// Holds the measurement lock; a test that failed while holding it left
/// nothing behind to repair, so its poison is ignored.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    MEASURING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `VmRSS` and `VmHWM` of this process, in KiB.
fn rss_and_hwm_kb() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| -> Option<u64> {
        let line = status.lines().find_map(|l| l.strip_prefix(name))?;
        line.trim().trim_end_matches("kB").trim().parse().ok()
    };
    Some((field("VmRSS:")?, field("VmHWM:")?))
}

/// Runs `f` and returns its result with how many KiB the high-water mark
/// rose above the resident set `f` started from — `None` where `/proc`
/// cannot say.
fn peak_rise_kb<T>(f: impl FnOnce() -> T) -> Option<(T, u64)> {
    let (before, _) = rss_and_hwm_kb()?;
    std::fs::write("/proc/self/clear_refs", "5").ok()?;
    let out = f();
    let (_, peak) = rss_and_hwm_kb()?;
    Some((out, peak.saturating_sub(before)))
}

const KIB: u64 = 1024;
const WRITES: u64 = 2048;
const VALUE_LEN: usize = 16 * 1024;

fn unsynced_unbounded_log() -> StoreConfig {
    StoreConfig {
        durability: Durability::Never,
        snapshot_every: 0,
    }
}

/// About 32 MiB of log: `WRITES` writes of 16 KiB, each a SUBMIT and a
/// COMMIT record, and no snapshot.
fn write_big_log(dir: &Path) {
    let mut server = PersistentServer::open(dir, 2, unsynced_unbounded_log()).unwrap();
    let mut cs = clients(2, b"recovery-memory");
    for round in 0..WRITES {
        let i = (round % 2) as usize;
        let value = Value::new(vec![round as u8; VALUE_LEN]);
        let submit = cs[i].begin_write(value).unwrap();
        run_op(&mut server, &mut cs[i], submit);
    }
    assert_eq!(server.next_seq(), 2 * WRITES);
}

#[test]
fn recovery_and_the_cursor_stream_a_32_mib_log() {
    let _measuring = one_at_a_time();
    let dir = testutil::scratch_dir("recovery-memory");
    write_big_log(&dir);
    let log_kb = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len() / KIB;
    assert!(log_kb > 32 * KIB, "log of {log_kb} KiB");

    let Some((server, rise_kb)) =
        peak_rise_kb(|| PersistentServer::open(&dir, 2, unsynced_unbounded_log()))
    else {
        eprintln!("skipped: /proc/self/status or clear_refs is unavailable");
        return;
    };
    let server = server.unwrap();
    assert_eq!(server.next_seq(), 2 * WRITES);
    eprintln!("recovery of a {log_kb} KiB log: peak RSS +{rise_kb} KiB");
    assert!(
        rise_kb < 4 * KIB,
        "recovering a {log_kb} KiB log raised the peak RSS by {rise_kb} KiB"
    );
    drop(server);

    let (walked, rise_kb) = peak_rise_kb(|| {
        let mut records = 0u64;
        for record in LogCursor::open(&dir).unwrap() {
            record.unwrap();
            records += 1;
        }
        records
    })
    .unwrap();
    assert_eq!(walked, 2 * WRITES);
    eprintln!("cursor walk of a {log_kb} KiB log: peak RSS +{rise_kb} KiB");
    assert!(
        rise_kb < 4 * KIB,
        "walking a {log_kb} KiB log raised the peak RSS by {rise_kb} KiB"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that zero-fills a buffer of the claimed length before reading
/// makes 64 MiB resident and fails here. One that only reserves it
/// (`vec![0; len]`, whose untouched pages never become resident) is not
/// caught by a resident-set bound.
#[test]
fn a_length_prefix_claiming_64_mib_costs_only_the_bytes_behind_it() {
    let _measuring = one_at_a_time();
    let dir = testutil::scratch_dir("recovery-hostile-length");
    drop(Wal::create(&dir, 2, 0, false).unwrap());
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(WAL_FILE))
        .unwrap();
    // Length prefix, an 8-byte checksum, and 10 of the claimed bytes.
    file.write_all(&(MAX_RECORD_LEN as u32).to_be_bytes())
        .unwrap();
    file.write_all(&[0xA5; 8 + 10]).unwrap();
    drop(file);

    let Some((result, rise_kb)) =
        peak_rise_kb(|| PersistentServer::open(&dir, 2, unsynced_unbounded_log()))
    else {
        eprintln!("skipped: /proc/self/status or clear_refs is unavailable");
        return;
    };
    match result.unwrap_err() {
        StoreError::TornRecord { seq, missing } => {
            assert_eq!((seq, missing as u64), (0, MAX_RECORD_LEN - 10))
        }
        other => panic!("expected TornRecord, got {other}"),
    }
    eprintln!("recovery from a hostile length prefix: peak RSS +{rise_kb} KiB");
    assert!(
        rise_kb < KIB,
        "a hostile length prefix raised the peak RSS by {rise_kb} KiB"
    );
    std::fs::remove_dir_all(&dir).ok();
}
