//! The client decodes bytes from an untrusted server itself: a frame it
//! cannot accept must end the connection — after every complete frame
//! before it — without a panic and without allocating what a hostile
//! length prefix claims.
//!
//! This file is its own test binary, so nothing but the one test below
//! maps memory while it measures.

use faust_crypto::Signature;
use faust_net::{tcp, TransportClosed};
use faust_types::frame::{frame_bytes, read_frame, MAX_FRAME_LEN};
use faust_types::{ClientId, CommitMsg, UstorMsg, Version};
use std::io::Write;
use std::net::{Shutdown, TcpListener};
use std::time::{Duration, Instant};

/// The process's private writable memory in KiB (`VmData`), where the
/// platform reports it. An allocation of the claimed length shows here
/// at once, even before its pages are touched.
fn vm_data_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmData:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn msg(n: usize) -> UstorMsg {
    UstorMsg::Commit(CommitMsg {
        version: Version::initial(n),
        commit_sig: Signature::garbage(),
        proof_sig: Signature::garbage(),
    })
}

#[test]
fn hostile_server_framing_is_rejected_with_bounded_memory() {
    let oversized = [&(MAX_FRAME_LEN + 1).to_be_bytes()[..], &[0u8; 64]].concat();
    let mut undecodable = frame_bytes(&msg(2));
    undecodable[4] = 0xEE; // no message has this tag
                           // A legal length prefix, then end of stream ten bytes in.
    let truncated = [&MAX_FRAME_LEN.to_be_bytes()[..], &[0u8; 10]].concat();

    for (case, damage, eof) in [
        ("oversized length prefix", oversized, false),
        ("undecodable payload", undecodable, false),
        ("EOF inside a frame", truncated, true),
    ] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = tcp::connect(listener.local_addr().unwrap(), ClientId::new(0)).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let before = vm_data_kib();
        let hello: Option<ClientId> = read_frame(&mut server).unwrap();
        assert_eq!(hello, Some(ClientId::new(0)), "{case}");
        server.write_all(&frame_bytes(&msg(1))).unwrap();
        server.write_all(&damage).unwrap();
        if eof {
            server.shutdown(Shutdown::Write).unwrap();
        }
        // The frame sent before the damage is delivered first...
        assert_eq!(
            conn.recv_timeout(Duration::from_secs(5)),
            Ok(Some(msg(1))),
            "{case}"
        );
        // ...then the connection is closed, with the server's socket
        // still open in the first two cases: the framing alone ends it.
        let deadline = Instant::now() + Duration::from_secs(5);
        let end = loop {
            match conn.recv_timeout(Duration::from_millis(100)) {
                Ok(None) if Instant::now() < deadline => continue,
                end => break end,
            }
        };
        assert_eq!(end, Err(TransportClosed), "{case}");
        assert_eq!(
            conn.recv_timeout(Duration::ZERO),
            Err(TransportClosed),
            "{case}"
        );
        // Both claims are 16 MiB or more; the client holds a few KiB.
        if let (Some(before), Some(after)) = (before, vm_data_kib()) {
            let grown = after.saturating_sub(before);
            assert!(grown < 4 << 10, "{case}: VmData grew {grown} KiB");
        }
    }
}
