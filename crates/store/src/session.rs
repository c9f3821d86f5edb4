//! The client's `FAUSTSES` session file, as a [`Sealed`] format:
//!
//! ```text
//!   "FAUSTSES" | version: u32 = 1 | payload_len: u32 | sha256(payload): 32 B | payload
//! ```
//!
//! The payload is opaque here — `faust-core` encodes its `SessionState`
//! there and saves and loads it through [`SESSION`] (this crate cannot
//! name that type without a dependency cycle).

use crate::file::{Checksum, Sealed};

/// The session file's sealed format: one version, SHA-256 over the
/// payload.
pub const SESSION: Sealed<()> = Sealed {
    magic: b"FAUSTSES",
    file: "session",
    versions: &[(1, Checksum::Sha256, ())],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        scratch_dir, sealed_damage, sealed_overwrite, sealed_roundtrip_and_absence,
    };

    #[test]
    fn roundtrip_and_absence() {
        let dir = scratch_dir("session-roundtrip");
        sealed_roundtrip_and_absence(&SESSION, &dir.join("alice.session"));
        assert!(!dir.join("alice.tmp").exists(), "temp file cleaned up");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_replaces_atomically() {
        let dir = scratch_dir("session-overwrite");
        sealed_overwrite(&SESSION, &dir.join("s.session"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_structured_not_a_panic() {
        let dir = scratch_dir("session-corrupt");
        sealed_damage(&SESSION, &dir.join("s.session"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
