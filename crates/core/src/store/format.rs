//! The store's files: what a grouped file holds, and how every file the
//! store and the durable tier write lands on disk.
//!
//! # File kinds
//!
//! A store file is named `<id>.hlx` ([`sig_file_name`]) and starts with
//! one tag byte:
//! - `1`: a node's data output — codec version-3 row groups behind a
//!   header, or, written by earlier releases, one version-2 output;
//! - `2`: a model bundle;
//! - `3`: a chunk-only file;
//! - `4`: a manifest.
//!
//! Tags 1 (version 3), 3 and 4 are one kind, a [`StoreFile`] with a
//! header. Each of its row groups is *own* (its bytes are here) or
//! *external* (its bytes live in another file, under the group's key;
//! only manifests have them), and the file serves its own id as a node key
//! unless it is chunk-only. One parse of the file's head, from a prefix
//! ([`read_head`]) or from the whole file, answers what the store asks of
//! any file: the keys it serves ([`StoreFile::keys`]), the external keys a
//! whole read goes through ([`StoreFile::refs`]), where each group's bytes
//! are ([`StoreFile::range`]) and what a shrink rewrites it to
//! ([`StoreFile::shrunk`]). The tag a writer stamps follows from the same
//! two facts ([`tag`]). Models and version-2 files parse too, as a node
//! key without row groups.
//!
//! # Writing
//!
//! Every file the store and the durable tier write whole — data files and
//! the meta and session snapshots — is written under a unique `*.tmp`
//! name beside its target and renamed over it ([`TempFile`]), so a reader
//! sees the old file or the new one, never a torn one. A crash leaves at
//! most a stray temp file, which [`sweep_tmp`] removes on the next open.

use crate::ops::{OUT_TAG_DATA, OUT_TAG_MODEL};
use crate::{HelixError, Result};
use helix_dataflow::codec::{self, GroupMeta, Header};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First byte of a chunk-only file (a node output's own first byte is
/// its [`crate::ops::NodeOutput`] tag, 1 or 2): codec v3 row groups that
/// serve their keys only, never a whole node output.
const TAG_CHUNKS: u8 = 3;

/// First byte of a manifest: a node output whose external row groups
/// (see [`helix_dataflow::codec`]) are read through their keys' locations
/// in other files. Like a node output, it serves its own name.
pub(super) const TAG_MANIFEST: u8 = 4;

/// The file name of store file `id`.
pub(super) fn sig_file_name(id: u64) -> String {
    format!("{id:016x}.hlx")
}

/// The tag byte of a grouped file that serves a node key (`node`) and
/// has external groups (`external`).
pub(super) fn tag(node: bool, external: bool) -> u8 {
    match (node, external) {
        (false, _) => TAG_CHUNKS,
        (true, false) => OUT_TAG_DATA,
        (true, true) => TAG_MANIFEST,
    }
}

/// A key a file serves: the key, the group it reads (`None` for the
/// whole output) and the bytes a read of it returns.
pub(super) type FileKey = (u64, Option<u32>, u64);

/// A store file as its head describes it.
pub(super) struct StoreFile {
    /// Serves the file's id as a node key: every file but a chunk-only one.
    pub(super) node: bool,
    /// The row groups' version-3 header; `None` for a model or a
    /// version-2 file, which hold one whole output.
    pub(super) header: Option<Header>,
}

/// Bytes of a store file's head, from its first `1 + PREFIX_BYTES`
/// bytes: the tag byte, plus the header of a version-3 data file.
fn head_len(prefix: &[u8]) -> Result<usize> {
    match prefix.split_first() {
        None => Err(HelixError::Store("empty store file".into())),
        Some((&OUT_TAG_MODEL, _)) => Ok(1),
        Some((_, rest)) => Ok(1 + codec::header_len(rest)?.unwrap_or(0)),
    }
}

/// Reads the head of a `len`-byte store file into `head` — nothing else.
/// On failure `head` keeps what was read, so the caller still knows the
/// file's tag.
pub(super) fn read_head(file: &mut std::fs::File, len: u64, head: &mut Vec<u8>) -> Result<()> {
    head.resize((len as usize).min(1 + codec::PREFIX_BYTES), 0);
    file.read_exact(head)?;
    let want = head_len(head)?;
    if want as u64 > len {
        return Err(HelixError::Store(format!(
            "header of {want} bytes in a {len}-byte file"
        )));
    }
    let have = head.len();
    if want > have {
        head.resize(want, 0);
        file.read_exact(&mut head[have..])?;
    }
    Ok(())
}

impl StoreFile {
    /// Parses a head [`read_head`] read, or a whole file.
    pub(super) fn parse(bytes: &[u8]) -> Result<StoreFile> {
        let header = match head_len(bytes)? {
            // The tag byte alone: a model or a version-2 file.
            1 => None,
            _ => Some(codec::read_header(&bytes[1..])?),
        };
        Ok(StoreFile {
            node: bytes[0] != TAG_CHUNKS,
            header,
        })
    }

    /// What the head of a file that fails to parse still says, from the
    /// bytes `head` that were read: whether it serves a node key, and no
    /// row groups.
    pub(super) fn unreadable(head: &[u8]) -> StoreFile {
        StoreFile {
            node: head.first() != Some(&TAG_CHUNKS),
            header: None,
        }
    }

    /// The keys file `id` of `len` bytes serves: the id itself unless the
    /// file is chunk-only, then every keyed group whose bytes the file
    /// holds. External groups are not its keys.
    pub(super) fn keys(&self, id: u64, len: u64) -> Vec<FileKey> {
        let whole = self.node.then_some((id, None, len));
        let groups = self.header.iter().flat_map(|h| {
            h.groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.key != 0 && !g.is_external())
                .map(|(k, g)| (g.key, Some(k as u32), g.len))
        });
        whole.into_iter().chain(groups).collect()
    }

    /// The keys of the external groups, in file order: a manifest's whole
    /// output reads them through their own locations.
    pub(super) fn refs(&self) -> Arc<[u64]> {
        let groups = self.header.iter().flat_map(|h| &h.groups);
        groups.filter(|g| g.is_external()).map(|g| g.key).collect()
    }

    /// Byte range of group `k` in the file, checked to lie inside its
    /// `len` bytes (offsets come from the file, so they are not trusted).
    pub(super) fn range(&self, k: usize, len: u64) -> Result<Range<u64>> {
        let header = self
            .header
            .as_ref()
            .ok_or_else(|| HelixError::Store("file has no row groups".into()))?;
        let range = header.group_range(k, len.saturating_sub(1))?;
        Ok(1 + range.start..1 + range.end)
    }

    /// The bytes of group `k`, out of the whole file `bytes`.
    pub(super) fn group<'a>(&self, bytes: &'a [u8], k: usize) -> Result<&'a [u8]> {
        let range = self.range(k, bytes.len() as u64)?;
        Ok(&bytes[range.start as usize..range.end as usize])
    }

    /// The bytes and checksum of the own group keyed `key` holding `rows`
    /// rows, out of the whole file `bytes`, if the file holds them.
    pub(super) fn own_group<'a>(
        &self,
        bytes: &'a [u8],
        key: u64,
        rows: u64,
    ) -> Option<(&'a [u8], u64)> {
        let groups = &self.header.as_ref()?.groups;
        let k = groups
            .iter()
            .position(|g| g.key == key && g.rows == rows && !g.is_external())?;
        Some((self.group(bytes, k).ok()?, groups[k].checksum))
    }

    /// What a shrink rewrites the whole file `bytes` to when of its own
    /// groups only those `own` accepts keep their bytes here: a node
    /// file's others become external (it is then a manifest), a
    /// chunk-only file's go. `None` when every own group stays; empty
    /// when nothing is left to serve.
    pub(super) fn shrunk(
        &self,
        bytes: &[u8],
        mut own: impl FnMut(usize, &GroupMeta) -> bool,
    ) -> Result<Option<Vec<u8>>> {
        let Some(header) = &self.header else {
            return Ok(None);
        };
        let mut groups = Vec::with_capacity(header.groups.len());
        let mut changed = false;
        for (k, g) in header.groups.iter().enumerate() {
            if !g.is_external() && own(k, g) {
                groups.push((*g, Some(self.group(bytes, k)?)));
                continue;
            }
            changed |= !g.is_external();
            if self.node {
                groups.push((*g, None));
            }
        }
        if !changed {
            return Ok(None);
        }
        if groups.is_empty() {
            return Ok(Some(Vec::new()));
        }
        let mut out = vec![tag(self.node, groups.iter().any(|(_, b)| b.is_none()))];
        codec::assemble_into(&header.schema, &groups, &mut out);
        Ok(Some(out))
    }
}

/// Process-wide counter for unique temp-file names: a racing write of
/// the same target must not write through this one's half-finished temp
/// file.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A file written beside its target under a unique `*.tmp` name, to be
/// renamed over the target by [`TempFile::commit`]. Dropped uncommitted,
/// it is removed.
pub(crate) struct TempFile {
    path: PathBuf,
    sync: bool,
}

impl TempFile {
    /// Writes `bytes` to a fresh temp file beside `target`, fsync'd when
    /// `sync` holds.
    pub(crate) fn write(target: &Path, bytes: &[u8], sync: bool) -> std::io::Result<TempFile> {
        let token = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut name = target.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".{}-{token}.tmp", std::process::id()));
        let tmp = TempFile {
            path: target.with_file_name(name),
            sync,
        };
        let mut file = std::fs::File::create(&tmp.path)?;
        file.write_all(bytes)?;
        if sync {
            file.sync_data()?;
        }
        Ok(tmp)
    }

    /// Renames the file over `target`, which readers then see whole. A
    /// synced file's rename is synced too: POSIX makes a rename durable
    /// only once its directory is fsync'd, so until then a crash can
    /// bring the old file back.
    pub(crate) fn commit(mut self, target: &Path) -> std::io::Result<()> {
        std::fs::rename(&self.path, target)?;
        // Renamed: nothing is left for `drop` to remove.
        self.path = PathBuf::new();
        if self.sync {
            crate::log::sync_parent(target)?;
        }
        Ok(())
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        if !self.path.as_os_str().is_empty() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Removes the `*.tmp` files a crash mid-write left in `dir`.
pub(crate) fn sweep_tmp(dir: &Path) {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    for path in entries.map(|e| e.path()) {
        if path.extension().is_some_and(|e| e == "tmp") {
            let _ = std::fs::remove_file(&path);
        }
    }
}
