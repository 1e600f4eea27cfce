//! The append-only log every durable document shares: the engine meta log
//! and each session's log. A record is one JSON object on one line, so a
//! strict prefix of a record never parses and a torn tail is always
//! detected; what a reader does with a line that does not parse (skip it,
//! or stop there) is its own policy. Every record, and the log's own
//! directory entry, is fsync'd before the call that wrote it returns.

use helix_json::Json;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// An open, append-only log file.
#[derive(Debug)]
pub(crate) struct Log {
    file: File,
    bytes: u64,
}

impl Log {
    /// Opens `path` for appending, creating it when missing. A new file's
    /// directory entry is fsync'd, so the log itself survives a crash, not
    /// only its records. [`Log::bytes`] starts at the file's length.
    pub(crate) fn open(path: &Path) -> std::io::Result<Log> {
        let created = !path.exists();
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if created {
            sync_parent(path)?;
        }
        Ok(Log {
            bytes: file.metadata()?.len(),
            file,
        })
    }

    /// Appends one record (the trailing newline is added here) as a single
    /// write, fsync'd before returning. A failed append is cut off again,
    /// so a partial record cannot hide the records appended after it from
    /// a reader that stops at the first bad one.
    pub(crate) fn append(&mut self, record: &str) -> std::io::Result<()> {
        let line = format!("{record}\n");
        let written = self
            .file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data());
        if let Err(err) = written {
            let _ = self.file.set_len(self.bytes);
            return Err(err);
        }
        self.bytes += line.len() as u64;
        Ok(())
    }

    /// Empties the log, once a snapshot holds everything it recorded.
    pub(crate) fn clear(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.bytes = 0;
        Ok(())
    }

    /// Bytes in the log.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Reads the log at `path`: every non-empty line in order, parsed
    /// (`None` for a line that is not JSON), and the bytes read. A missing
    /// file is an empty log.
    pub(crate) fn replay(path: &Path) -> std::io::Result<(Vec<Option<Json>>, u64)> {
        let data = match std::fs::read(path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(e),
        };
        let records = data
            .split(|&b| b == b'\n')
            .filter(|line| !line.is_empty())
            .map(|line| {
                std::str::from_utf8(line)
                    .ok()
                    .and_then(|text| Json::parse(text).ok())
            })
            .collect();
        Ok((records, data.len() as u64))
    }
}

/// Fsyncs the directory holding `path`. POSIX makes a rename or a file
/// creation durable only once its directory is synced: without this, a
/// crash can bring back the old name.
pub(crate) fn sync_parent(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}
