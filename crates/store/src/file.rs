//! How a file reaches the disk: the one crash-safe replace every file of
//! the store and the client is written through, and the sealed container
//! that `snapshot.bin`, the client's `FAUSTSES` session file and
//! `faust-audit`'s `FAUSTHIS` session history share.
//!
//! [`replace`] writes the new contents to a temp file beside the target,
//! syncs it, renames it over the target and syncs the directory, so a
//! crash at any point leaves either the old file or the new one, complete.
//! `wal.bin` (created and rotated by [`Wal::create`](crate::log::Wal::create),
//! cut by [`truncate_tail_records`](crate::truncate_tail_records)),
//! `snapshot.bin`, `FAUSTSES` and `faust-audit`'s `FAUSTHIS` all go
//! through it; nothing else in the workspace renames a file.
//!
//! A [`Sealed`] file is one checksummed payload behind a fixed header:
//!
//! ```text
//!   magic: 8 B | version: u32 | payload_len: u32 | checksum(payload) | payload
//! ```
//!
//! Each format is a table: its magic, the name its errors carry, and for
//! every version this build reads, the [`Checksum`] that version selects
//! and whatever else it does (`snapshot.bin`'s `SVER` layout). The reader
//! validates magic, version, length and checksum before it hands out a
//! single byte of payload, so a damaged file is a typed [`StoreError`]
//! keyed by the file's name, never a partly loaded one. `FAUSTHIS` seals
//! only its manifest this way and carries its sections behind it
//! ([`Sealed::open`] hands those bytes back; [`Sealed::read`] refuses
//! them).

pub use crate::checksum::Checksum;
use crate::StoreError;
use faust_types::{Wire, WireError};
use std::fs::{self, File, OpenOptions};
use std::io::{self, ErrorKind, Write};
use std::path::Path;

/// Bytes before the checksum: magic, version, payload length.
const PREFIX: usize = 8 + 4 + 4;

/// Atomically replaces the file at `path` with what `write` writes: into
/// `path.with_extension("tmp")`, synced, renamed into place, and the
/// parent directory synced so the rename survives a crash (a bare relative
/// name has no directory to sync). Without `sync`, both syncs are skipped.
/// Returns the renamed file, positioned where `write` left it.
///
/// # Errors
///
/// Propagates `write`'s and the file system's errors; a failed replace
/// never disturbs the file at `path`.
pub fn replace(
    path: &Path,
    sync: bool,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> Result<File, StoreError> {
    let tmp = path.with_extension("tmp");
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)?;
    write(&mut file)?;
    if sync {
        file.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if sync {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            File::open(dir)?.sync_all()?;
        }
    }
    Ok(file)
}

/// A sealed-file format: the magic opening it, the name its errors carry,
/// and one row per version this build reads — the version, its checksum,
/// and what else the version selects. The first row is the version
/// written.
#[derive(Debug)]
pub struct Sealed<T: 'static> {
    /// Magic string opening every file of the format.
    pub magic: &'static [u8; 8],
    /// The `file` of every [`StoreError`] the reader returns.
    pub file: &'static str,
    /// `(version, checksum, selected)` per readable version, written first.
    pub versions: &'static [(u32, Checksum, T)],
}

impl<T: Copy> Sealed<T> {
    fn row(&self, version: u32) -> Option<(Checksum, T)> {
        self.versions
            .iter()
            .find(|row| row.0 == version)
            .map(|&(_, checksum, selected)| (checksum, selected))
    }

    /// The file of `version`, whose payload `encode` appends once, behind
    /// room reserved for the header; the header is patched in place.
    ///
    /// # Panics
    ///
    /// Panics for a version this build does not read.
    pub fn seal_with(&self, version: u32, encode: impl FnOnce(T, &mut Vec<u8>)) -> Vec<u8> {
        let (checksum, selected) = self.row(version).expect("a version this build reads");
        let header = PREFIX + checksum.len();
        let mut bytes = vec![0; header];
        encode(selected, &mut bytes);
        let (head, payload) = bytes.split_at_mut(header);
        head[..8].copy_from_slice(self.magic);
        head[8..12].copy_from_slice(&version.to_be_bytes());
        head[12..16].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        checksum.write(payload, &mut head[PREFIX..]);
        bytes
    }

    /// Atomically writes the file at `path` ([`replace`]) in the version
    /// written; `encode` gets what that version selects and appends the
    /// payload.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; a failed write never disturbs an
    /// existing file.
    pub fn write(
        &self,
        path: &Path,
        sync: bool,
        encode: impl FnOnce(T, &mut Vec<u8>),
    ) -> Result<(), StoreError> {
        let bytes = self.seal_with(self.versions[0].0, encode);
        replace(path, sync, |file| file.write_all(&bytes))?;
        Ok(())
    }

    /// `payload` sealed as `version` under its correct checksum, so that
    /// whatever the payload holds reaches the payload parser — how tests
    /// frame payloads of their own.
    ///
    /// # Panics
    ///
    /// Panics for a version this build does not read.
    pub fn seal(&self, version: u32, payload: &[u8]) -> Vec<u8> {
        self.seal_with(version, |_, out| out.extend_from_slice(payload))
    }

    /// Reads and validates the file at `path`: what its version selects
    /// and its payload, or `Ok(None)` if no file exists.
    ///
    /// # Errors
    ///
    /// [`StoreError::TruncatedHeader`], [`StoreError::BadMagic`],
    /// [`StoreError::UnsupportedVersion`], [`StoreError::Corrupt`] for a
    /// file that ends inside its payload or runs past it, and
    /// [`StoreError::Checksum`], each naming `self.file`.
    pub fn read(&self, path: &Path) -> Result<Option<(T, Vec<u8>)>, StoreError> {
        let mut bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let (selected, payload, _) = self.check(&bytes, true)?;
        let header = bytes.len() - payload.len();
        bytes.drain(..header);
        Ok(Some((selected, bytes)))
    }

    /// Validates the sealed file at the front of `bytes`: what its version
    /// selects, its payload, and whatever follows the payload, which a
    /// format that carries more than one payload (`FAUSTHIS`) reads itself.
    ///
    /// # Errors
    ///
    /// As [`Sealed::read`], except that bytes after the payload are not
    /// an error.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<(T, &'a [u8], &'a [u8]), StoreError> {
        self.check(bytes, false)
    }

    /// Magic, version, length — bytes after the payload too, if `whole`
    /// — then the checksum.
    fn check<'a>(
        &self,
        bytes: &'a [u8],
        whole: bool,
    ) -> Result<(T, &'a [u8], &'a [u8]), StoreError> {
        let file = self.file;
        if bytes.len() < PREFIX {
            return Err(StoreError::TruncatedHeader { file });
        }
        if bytes[..8] != self.magic[..] {
            return Err(StoreError::BadMagic { file });
        }
        let mut words = &bytes[8..PREFIX];
        let version = u32::decode_from(&mut words).expect("sized above");
        let Some((checksum, selected)) = self.row(version) else {
            return Err(StoreError::UnsupportedVersion { file, version });
        };
        let len = u32::decode_from(&mut words).expect("sized above") as usize;
        let header = PREFIX + checksum.len();
        let Some(found) = bytes.len().checked_sub(header) else {
            return Err(StoreError::TruncatedHeader { file });
        };
        let corrupt = |error| Err(StoreError::Corrupt { file, error });
        let Some(extra) = found.checked_sub(len) else {
            return corrupt(WireError::Truncated);
        };
        if whole && extra > 0 {
            return corrupt(WireError::TrailingBytes(extra));
        }
        let (payload, rest) = bytes[header..].split_at(len);
        if !checksum.matches(payload, &bytes[PREFIX..header]) {
            return Err(StoreError::Checksum { file });
        }
        Ok((selected, payload, rest))
    }
}
