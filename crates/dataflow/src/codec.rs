//! Self-describing binary serialization for [`DataCollection`]s.
//!
//! Materialized intermediate results are written in this format.
//! Implemented locally because no serde *format* crate is in the approved
//! offline dependency set (see DESIGN.md §5); this also keeps the on-disk
//! size — an input to the materialization optimizer — fully under our
//! control.
//!
//! # Layout (version 3)
//!
//! A collection is written as a fixed prefix, a header, and a data section
//! of **row groups**:
//!
//! ```text
//! prefix   magic "HLXD" · version u32 = 3 · header length u32
//! header   schema: field count (varint), then per field its name
//!            (varint length + UTF-8) and dtype tag
//!          total rows u64 · group count u32
//!          per group: rows u64 · offset u64 · length u64 · key u64 · checksum u64
//!          header checksum u64
//! data     the groups back to back; each group is
//!            values length u64 · its rows' tagged values, row-major ·
//!            string dictionary: count (varint), then varint length + UTF-8 each
//! ```
//!
//! Fixed-width integers are little-endian; lengths are LEB128 varints and
//! integer values zigzag varints. A group's offset counts from the first
//! data byte. The header checksum is the [Fx hash](crate::fx) of every byte
//! before it, a group's checksum the Fx hash of the group's bytes; both are
//! verified on every read.
//!
//! Each value is a tag byte and a body:
//!
//! ```text
//! 0 null · 1 false · 2 true           no body
//! 3 int                               zigzag varint
//! 4 float                             f64 bits, u64
//! 5 string                            dictionary index (varint)
//! 6 list                              item count (varint), then the items
//! 7 feature cell (Value::Feats)       pair count (varint), then per pair
//!                                       name: dictionary index (varint) ·
//!                                       value: f64 bits, u64
//! ```
//!
//! A feature name shares the group's dictionary with string values. The
//! decoder turns a dictionary entry into one `Arc<str>` the first time a
//! feature cell names it, and every cell of the group naming it shares that
//! `Arc`. Nested `[name, value]` lists written before feature cells existed
//! stay tag 6 and decode as lists.
//!
//! Each group carries its own string dictionary, written *after* its values
//! so the writer interns each string as it meets it (one hash per
//! occurrence). Any one group therefore decodes from the header plus its
//! own byte range ([`read_header`] + [`decode_group`]) — the intermediate
//! store uses that to serve a data chunk out of a whole node's file. The
//! group key is opaque here: the store files a group under the chunk's
//! partition signature, and `0` means the group has no key of its own.
//!
//! A group of length 0 is *external* ([`assemble_into`]): the header gives
//! its row count and key, and its bytes live elsewhere under that key — the
//! store rewrites a node file whose groups a newer file also holds as such
//! a *manifest*. A real group is never empty (it holds at least its
//! values length and dictionary count), so the length tells the two apart.
//! [`decode`] and [`decode_group`] reject an external group; its reader
//! resolves the key.
//!
//! Version 2 (no header, one dictionary ahead of row-major values) is still
//! decoded by [`decode`]; it is never written.

use crate::fx::{hash_bytes, FxHashMap};
use crate::{DataCollection, DataType, DataflowError, Field, Result, Row, Rows, Schema, Value};
use std::ops::Range;
use std::sync::Arc;

/// File magic: "HLXD" (HeLiX Data).
pub const MAGIC: [u8; 4] = *b"HLXD";
/// The format version [`encode`] writes.
pub const VERSION: u32 = 3;
/// The previous, header-less version, still decoded.
const VERSION_2: u32 = 2;
/// Bytes before the header: magic, version, header length.
pub const PREFIX_BYTES: usize = 12;
/// Bytes of one group's header entry (five u64 fields).
const GROUP_ENTRY_BYTES: usize = 40;

// Value tags. Distinct from DataType tags: values carry their own runtime
// type so `Any` columns round-trip exactly.
const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_LIST: u8 = 6;
const TAG_FEATS: u8 = 7;
/// Bytes of one encoded feature pair, at least: a one-byte index and an f64.
const MIN_PAIR_BYTES: usize = 9;

/// One row group to write: rows `[start, end)` of the collection, filed
/// under an opaque `key` (`0` = none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSpec {
    /// First row of the group.
    pub start: usize,
    /// One past the group's last row.
    pub end: usize,
    /// Opaque key stored in the header.
    pub key: u64,
}

/// One row group as the header describes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMeta {
    /// Rows in the group.
    pub rows: u64,
    /// Byte offset of the group from the first data byte.
    pub offset: u64,
    /// Byte length of the group.
    pub len: u64,
    /// The key the group was written with (`0` = none).
    pub key: u64,
    /// Fx hash of the group's bytes.
    pub checksum: u64,
}

impl GroupMeta {
    /// Whether the group is external: its rows are stored elsewhere under
    /// its key, and this buffer holds none of its bytes.
    pub fn is_external(&self) -> bool {
        self.len == 0
    }
}

/// A parsed, checksum-verified version-3 header.
#[derive(Debug, Clone)]
pub struct Header {
    /// The collection's schema, shared by every group.
    pub schema: Arc<Schema>,
    /// Rows across all groups.
    pub rows: u64,
    /// The row groups in file order.
    pub groups: Vec<GroupMeta>,
    /// Bytes from the magic to the first data byte.
    pub len: usize,
}

impl Header {
    /// Byte range of group `index`, counted from the magic, checked to
    /// lie inside a buffer of `total_len` bytes (offsets come from the
    /// file, so they are not trusted).
    pub fn group_range(&self, index: usize, total_len: u64) -> Result<Range<u64>> {
        let group = self
            .groups
            .get(index)
            .ok_or_else(|| codec_err(format!("no group {index}")))?;
        let start = (self.len as u64).checked_add(group.offset);
        let end = start.and_then(|s| s.checked_add(group.len));
        match (start, end) {
            (Some(start), Some(end)) if end <= total_len => Ok(start..end),
            _ => Err(codec_err(format!("group {index} lies outside the data"))),
        }
    }
}

fn codec_err(msg: impl Into<String>) -> DataflowError {
    DataflowError::Codec(msg.into())
}

/// Encodes a collection into a fresh buffer, as one group without a key.
pub fn encode(dc: &DataCollection) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + dc.estimated_bytes() / 2);
    encode_into(dc, &mut buf);
    buf
}

/// Encodes a collection as one group without a key, appending to `buf`.
pub fn encode_into(dc: &DataCollection, buf: &mut Vec<u8>) {
    let whole = GroupSpec {
        start: 0,
        end: dc.len(),
        key: 0,
    };
    encode_grouped_into(dc, &[whole], buf);
}

/// Encodes the rows of `groups`, in order, each as its own row group.
/// The groups need not cover the collection: the encoded collection is
/// their concatenation.
///
/// # Panics
/// If a group's range is reversed or runs past the collection.
pub fn encode_grouped(dc: &DataCollection, groups: &[GroupSpec]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + dc.estimated_bytes() / 2);
    encode_grouped_into(dc, groups, &mut buf);
    buf
}

/// [`encode_grouped`], appending to `buf`.
///
/// # Panics
/// If a group's range is reversed or runs past the collection.
pub fn encode_grouped_into(dc: &DataCollection, groups: &[GroupSpec], buf: &mut Vec<u8>) {
    encode_spliced_into(dc, groups, |_| None, buf);
}

/// [`encode_grouped_into`], except that group `k` is copied from
/// `encoded(k)` — its bytes and checksum as an earlier encoding of the
/// same rows wrote them — when that is `Some`. The encoding is a function
/// of the rows alone, so the result is byte-identical to encoding them.
///
/// # Panics
/// If a group's range is reversed or runs past the collection.
pub fn encode_spliced_into<'a>(
    dc: &DataCollection,
    groups: &[GroupSpec],
    encoded: impl Fn(usize) -> Option<(&'a [u8], u64)>,
    buf: &mut Vec<u8>,
) {
    let total_rows = groups.iter().map(|g| g.end - g.start).sum::<usize>();
    let mut writer = Writer::begin(dc.schema(), total_rows as u64, groups.len(), buf);
    let mut table = StringTable::default();
    for (k, group) in groups.iter().enumerate() {
        let start = buf.len();
        let rows = dc.rows_range(group.start, group.end);
        let checksum = match encoded(k) {
            Some((bytes, checksum)) => {
                buf.extend_from_slice(bytes);
                checksum
            }
            None => {
                encode_group(rows, &mut table, buf);
                hash_bytes(&buf[start..])
            }
        };
        writer.group(buf, start, rows.len() as u64, group.key, checksum);
    }
    writer.finish(buf);
}

/// Writes a version-3 buffer from groups that are already encoded:
/// `groups` as a verified header lists them, each with its bytes, or
/// `None` to write it as an *external* group (see the module docs).
/// A group that was external stays external.
///
/// # Panics
/// If a group's bytes disagree with its length.
pub fn assemble_into(schema: &Schema, groups: &[(GroupMeta, Option<&[u8]>)], buf: &mut Vec<u8>) {
    let total_rows = groups.iter().map(|(g, _)| g.rows).sum();
    let mut writer = Writer::begin(schema, total_rows, groups.len(), buf);
    for (meta, bytes) in groups {
        let start = buf.len();
        let checksum = match bytes {
            Some(bytes) if !meta.is_external() => {
                assert_eq!(
                    bytes.len() as u64,
                    meta.len,
                    "group bytes and length disagree"
                );
                buf.extend_from_slice(bytes);
                meta.checksum
            }
            _ => 0,
        };
        writer.group(buf, start, meta.rows, meta.key, checksum);
    }
    writer.finish(buf);
}

/// Writes a version-3 buffer front to back: the prefix and a header with
/// room for the group table, then each group's entry as its bytes are
/// appended, then the header checksum.
struct Writer {
    base: usize,
    table_at: usize,
    checksum_at: usize,
    data_start: usize,
    next: usize,
}

impl Writer {
    fn begin(schema: &Schema, total_rows: u64, groups: usize, buf: &mut Vec<u8>) -> Writer {
        let base = buf.len();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        let len_at = buf.len();
        buf.extend_from_slice(&[0; 4]);
        write_varint(buf, schema.len() as u64);
        for field in schema.fields() {
            write_varint(buf, field.name.len() as u64);
            buf.extend_from_slice(field.name.as_bytes());
            buf.push(field.dtype.tag());
        }
        buf.extend_from_slice(&total_rows.to_le_bytes());
        buf.extend_from_slice(&(groups as u32).to_le_bytes());
        let table_at = buf.len();
        buf.resize(table_at + groups * GROUP_ENTRY_BYTES + 8, 0);
        let checksum_at = buf.len() - 8;
        let header_len = u32::try_from(buf.len() - len_at - 4).expect("header under 4 GiB");
        buf[len_at..len_at + 4].copy_from_slice(&header_len.to_le_bytes());
        Writer {
            base,
            table_at,
            checksum_at,
            data_start: buf.len(),
            next: 0,
        }
    }

    /// Records the next group, whose bytes (none for an external group)
    /// run from `start` to the end of `buf`.
    fn group(&mut self, buf: &mut [u8], start: usize, rows: u64, key: u64, checksum: u64) {
        let entry = [
            rows,
            (start - self.data_start) as u64,
            (buf.len() - start) as u64,
            key,
            checksum,
        ];
        let at = self.table_at + self.next * GROUP_ENTRY_BYTES;
        for (k, field) in entry.iter().enumerate() {
            buf[at + 8 * k..at + 8 * k + 8].copy_from_slice(&field.to_le_bytes());
        }
        self.next += 1;
    }

    fn finish(self, buf: &mut [u8]) {
        let header_checksum = hash_bytes(&buf[self.base..self.checksum_at]);
        buf[self.checksum_at..self.checksum_at + 8].copy_from_slice(&header_checksum.to_le_bytes());
    }
}

/// Interning dictionary for one group: strings are borrowed from the
/// collection being encoded and hashed once per occurrence.
#[derive(Default)]
struct StringTable<'a> {
    index: FxHashMap<&'a str, u64>,
    entries: Vec<&'a str>,
}

impl<'a> StringTable<'a> {
    fn intern(&mut self, s: &'a str) -> u64 {
        let entries = &mut self.entries;
        *self.index.entry(s).or_insert_with(|| {
            entries.push(s);
            entries.len() as u64 - 1
        })
    }
}

/// Writes one group: its values (interning strings on the way), then the
/// dictionary those values index.
fn encode_group<'a>(rows: Rows<'a>, table: &mut StringTable<'a>, buf: &mut Vec<u8>) {
    table.index.clear();
    table.entries.clear();
    let len_at = buf.len();
    buf.extend_from_slice(&[0; 8]);
    for row in rows {
        for value in row.values() {
            write_value(buf, value, table);
        }
    }
    let values_len = (buf.len() - len_at - 8) as u64;
    buf[len_at..len_at + 8].copy_from_slice(&values_len.to_le_bytes());
    write_varint(buf, table.entries.len() as u64);
    for s in &table.entries {
        write_varint(buf, s.len() as u64);
        buf.extend_from_slice(s.as_bytes());
    }
}

/// Header bytes (prefix included) of an encoded collection, read from its
/// first [`PREFIX_BYTES`]: `Some` for version 3, `None` for a version-2
/// buffer, which has no header and must be decoded whole.
///
/// # Errors
/// [`DataflowError::Codec`] on a short prefix, bad magic or an unknown
/// version.
pub fn header_len(prefix: &[u8]) -> Result<Option<usize>> {
    if prefix.len() < 8 {
        return Err(codec_err("truncated input: no version"));
    }
    if prefix[..4] != MAGIC {
        return Err(codec_err("bad magic; not a Helix data file"));
    }
    match u32::from_le_bytes(prefix[4..8].try_into().expect("4 bytes")) {
        VERSION_2 => Ok(None),
        VERSION if prefix.len() >= PREFIX_BYTES => {
            let len = u32::from_le_bytes(prefix[8..12].try_into().expect("4 bytes"));
            Ok(Some(PREFIX_BYTES + len as usize))
        }
        VERSION => Err(codec_err("truncated input: no header length")),
        version => Err(codec_err(format!("unsupported version {version}"))),
    }
}

/// Parses and verifies the version-3 header at the start of `bytes`
/// (which must hold at least [`header_len`] bytes; the data may follow).
///
/// # Errors
/// [`DataflowError::Codec`] on a version-2 buffer, truncation, a header
/// checksum mismatch or a malformed header.
pub fn read_header(bytes: &[u8]) -> Result<Header> {
    let len = header_len(bytes)?.ok_or_else(|| codec_err("version 2 has no header"))?;
    if len < PREFIX_BYTES + 8 || bytes.len() < len {
        return Err(codec_err(format!(
            "truncated input: header of {len} bytes, {} available",
            bytes.len()
        )));
    }
    let stored = u64::from_le_bytes(bytes[len - 8..len].try_into().expect("8 bytes"));
    if hash_bytes(&bytes[..len - 8]) != stored {
        return Err(codec_err("header checksum mismatch"));
    }
    parse_header(bytes, len)
}

/// Parses the `len`-byte header at the start of `bytes` without checking
/// its checksum.
fn parse_header(bytes: &[u8], len: usize) -> Result<Header> {
    let mut cursor = Cursor {
        bytes: &bytes[..len - 8],
        pos: PREFIX_BYTES,
    };
    let schema = read_schema(&mut cursor)?;
    let rows = cursor.read_u64()?;
    let count = cursor.read_u32()? as usize;
    if cursor.remaining() != count.saturating_mul(GROUP_ENTRY_BYTES) {
        return Err(codec_err(format!(
            "header holds {} group-table bytes for {count} groups",
            cursor.remaining()
        )));
    }
    let mut groups = Vec::with_capacity(count);
    for _ in 0..count {
        groups.push(GroupMeta {
            rows: cursor.read_u64()?,
            offset: cursor.read_u64()?,
            len: cursor.read_u64()?,
            key: cursor.read_u64()?,
            checksum: cursor.read_u64()?,
        });
    }
    Ok(Header {
        schema,
        rows,
        groups,
        len,
    })
}

/// Decodes group `index` of a collection from its header and exactly the
/// group's bytes (see [`Header::group_range`]), verifying its checksum.
///
/// # Errors
/// [`DataflowError::Codec`] on a length or checksum mismatch, or malformed
/// group bytes.
pub fn decode_group(header: &Header, index: usize, bytes: &[u8]) -> Result<DataCollection> {
    let group = header
        .groups
        .get(index)
        .ok_or_else(|| codec_err(format!("no group {index}")))?;
    let mut rows = Vec::new();
    decode_group_rows(&header.schema, index, group, bytes, &mut rows)?;
    DataCollection::new(Arc::clone(&header.schema), rows)
}

/// Verifies one group's bytes against its header entry and appends its
/// rows to `out`.
fn decode_group_rows(
    schema: &Schema,
    index: usize,
    group: &GroupMeta,
    bytes: &[u8],
    out: &mut Vec<Row>,
) -> Result<()> {
    if group.is_external() {
        return Err(codec_err(format!(
            "group {index} is external; its bytes are stored elsewhere"
        )));
    }
    if bytes.len() as u64 != group.len {
        return Err(codec_err(format!(
            "group {index} is {} bytes, header says {}",
            bytes.len(),
            group.len
        )));
    }
    if hash_bytes(bytes) != group.checksum {
        return Err(codec_err(format!("group {index} checksum mismatch")));
    }
    let mut cursor = Cursor { bytes, pos: 0 };
    let values_len = cursor.read_u64()?;
    if values_len > cursor.remaining() as u64 {
        return Err(codec_err(format!("group {index} values overrun the group")));
    }
    let values_end = 8 + values_len as usize;
    let mut dict = Cursor {
        bytes: &bytes[values_end..],
        pos: 0,
    };
    let mut strings = read_dictionary(&mut dict)?;
    if dict.remaining() != 0 {
        return Err(codec_err(format!(
            "{} trailing bytes after group {index}'s dictionary",
            dict.remaining()
        )));
    }
    let mut values = Cursor {
        bytes: &bytes[..values_end],
        pos: 8,
    };
    read_rows(&mut values, schema.len(), group.rows, &mut strings, out)?;
    if values.remaining() != 0 {
        return Err(codec_err(format!(
            "{} trailing value bytes in group {index}",
            values.remaining()
        )));
    }
    Ok(())
}

/// Decodes a whole collection produced by [`encode`] or
/// [`encode_grouped`] — or by the version-2 writer — verifying every
/// checksum.
///
/// # Errors
/// [`DataflowError::Codec`] on truncated, corrupt or malformed input.
pub fn decode(bytes: &[u8]) -> Result<DataCollection> {
    if header_len(bytes)?.is_none() {
        return decode_v2(bytes);
    }
    let header = read_header(bytes)?;
    let data = &bytes[header.len..];
    let mut rows = Vec::with_capacity((header.rows as usize).min(data.len()));
    let mut at = 0u64;
    for (index, group) in header.groups.iter().enumerate() {
        if group.offset != at || group.len > (data.len() as u64 - at) {
            return Err(codec_err(format!(
                "group {index} does not follow its predecessor"
            )));
        }
        let end = (at + group.len) as usize;
        decode_group_rows(
            &header.schema,
            index,
            group,
            &data[at as usize..end],
            &mut rows,
        )?;
        at = end as u64;
    }
    if at != data.len() as u64 {
        return Err(codec_err(format!(
            "{} trailing bytes after payload",
            data.len() as u64 - at
        )));
    }
    if rows.len() as u64 != header.rows {
        return Err(codec_err(format!(
            "groups hold {} rows, header says {}",
            rows.len(),
            header.rows
        )));
    }
    // Values were written from a validated collection but the file may have
    // been corrupted or hand-crafted: re-validate.
    DataCollection::new(header.schema, rows)
}

/// The version-2 layout: magic, version, schema, one dictionary, row
/// count, row-major tagged values.
fn decode_v2(bytes: &[u8]) -> Result<DataCollection> {
    let mut cursor = Cursor { bytes, pos: 8 };
    let schema = read_schema(&mut cursor)?;
    let mut strings = read_dictionary(&mut cursor)?;
    let nrows = cursor.read_varint()?;
    let mut rows = Vec::new();
    read_rows(&mut cursor, schema.len(), nrows, &mut strings, &mut rows)?;
    if cursor.remaining() != 0 {
        return Err(codec_err(format!(
            "{} trailing bytes after payload",
            cursor.remaining()
        )));
    }
    DataCollection::new(schema, rows)
}

fn read_schema(cursor: &mut Cursor<'_>) -> Result<Arc<Schema>> {
    let nfields = cursor.read_varint()? as usize;
    if nfields > 1 << 20 {
        return Err(codec_err(format!("implausible field count {nfields}")));
    }
    let mut fields = Vec::with_capacity(nfields.min(cursor.remaining()));
    for _ in 0..nfields {
        let name_len = cursor.read_varint()? as usize;
        let name_bytes = cursor.take(name_len)?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| codec_err("field name is not UTF-8"))?
            .to_string();
        let dtype = DataType::from_tag(cursor.take(1)?[0])?;
        fields.push(Field::new(name, dtype));
    }
    Schema::new(fields)
}

/// A decoded string dictionary, borrowed from the encoded bytes. Feature
/// names become `Arc`s on first use, one per entry, shared by every cell
/// that names the entry.
struct Dictionary<'a> {
    strings: Vec<&'a str>,
    names: Vec<Option<Arc<str>>>,
}

impl<'a> Dictionary<'a> {
    fn get(&self, idx: u64) -> Result<&'a str> {
        usize::try_from(idx)
            .ok()
            .and_then(|i| self.strings.get(i).copied())
            .ok_or_else(|| codec_err(format!("dictionary index {idx} out of range")))
    }

    fn name(&mut self, idx: u64) -> Result<Arc<str>> {
        let s = self.get(idx)?;
        if self.names.is_empty() {
            self.names.resize(self.strings.len(), None);
        }
        Ok(Arc::clone(
            self.names[idx as usize].get_or_insert_with(|| Arc::from(s)),
        ))
    }
}

fn read_dictionary<'a>(cursor: &mut Cursor<'a>) -> Result<Dictionary<'a>> {
    let nstrings = cursor.read_varint()? as usize;
    if nstrings > 1 << 26 {
        return Err(codec_err(format!("implausible dictionary size {nstrings}")));
    }
    let mut strings = Vec::with_capacity(nstrings.min(cursor.remaining()));
    for _ in 0..nstrings {
        let len = cursor.read_varint()? as usize;
        let bytes = cursor.take(len)?;
        strings.push(
            std::str::from_utf8(bytes).map_err(|_| codec_err("dictionary string is not UTF-8"))?,
        );
    }
    Ok(Dictionary {
        strings,
        names: Vec::new(),
    })
}

/// Reads `nrows` rows of `ncols` tagged values each into `out`.
fn read_rows(
    cursor: &mut Cursor<'_>,
    ncols: usize,
    nrows: u64,
    strings: &mut Dictionary<'_>,
    out: &mut Vec<Row>,
) -> Result<()> {
    // Every value takes at least one byte, so a row count the remaining
    // bytes cannot hold is corrupt; a column-less collection reads no
    // bytes at all and is capped instead.
    let budget = cursor.remaining().checked_div(ncols).unwrap_or(1 << 24) as u64;
    if nrows > budget {
        return Err(codec_err(format!("implausible row count {nrows}")));
    }
    out.reserve(nrows as usize);
    for _ in 0..nrows {
        let mut values = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            values.push(read_value(cursor, strings, 0)?);
        }
        out.push(Row(values));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Value encoding
// ---------------------------------------------------------------------------

fn write_value<'a>(buf: &mut Vec<u8>, value: &'a Value, table: &mut StringTable<'a>) {
    match value {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(false) => buf.push(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.push(TAG_BOOL_TRUE),
        Value::Int(i) => {
            buf.push(TAG_INT);
            write_varint(buf, zigzag_encode(*i));
        }
        Value::Float(f) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            let idx = table.intern(s);
            write_varint(buf, idx);
        }
        Value::List(items) => {
            buf.push(TAG_LIST);
            write_varint(buf, items.len() as u64);
            for item in items {
                write_value(buf, item, table);
            }
        }
        Value::Feats(pairs) => {
            buf.push(TAG_FEATS);
            write_varint(buf, pairs.len() as u64);
            for (name, value) in pairs {
                let idx = table.intern(name);
                write_varint(buf, idx);
                buf.extend_from_slice(&value.to_bits().to_le_bytes());
            }
        }
    }
}

const MAX_LIST_DEPTH: u32 = 64;

fn read_value(cursor: &mut Cursor<'_>, strings: &mut Dictionary<'_>, depth: u32) -> Result<Value> {
    if depth > MAX_LIST_DEPTH {
        return Err(codec_err("list nesting too deep"));
    }
    let tag = cursor.take(1)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(zigzag_decode(cursor.read_varint()?)),
        TAG_FLOAT => Value::Float(f64::from_bits(cursor.read_u64()?)),
        TAG_STR => Value::Str(strings.get(cursor.read_varint()?)?.to_string()),
        TAG_LIST => {
            let len = cursor.read_varint()? as usize;
            if len > cursor.remaining() {
                return Err(codec_err(format!("implausible list length {len}")));
            }
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(read_value(cursor, strings, depth + 1)?);
            }
            Value::List(items)
        }
        TAG_FEATS => {
            let len = cursor.read_varint()? as usize;
            if len > cursor.remaining() / MIN_PAIR_BYTES {
                return Err(codec_err(format!("implausible feature count {len}")));
            }
            let mut pairs = Vec::with_capacity(len);
            for _ in 0..len {
                let name = strings.name(cursor.read_varint()?)?;
                pairs.push((name, f64::from_bits(cursor.read_u64()?)));
            }
            Value::Feats(pairs)
        }
        other => return Err(codec_err(format!("bad value tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

fn write_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(codec_err(format!(
                "truncated input: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn read_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn read_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn read_varint(&mut self) -> Result<u64> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.take(1)?[0];
            if shift >= 64 {
                return Err(codec_err("varint overflows u64"));
            }
            result |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> DataCollection {
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
            ("tags", DataType::List),
            ("ok", DataType::Bool),
        ]);
        DataCollection::new(
            schema,
            vec![
                Row(vec![
                    Value::Int(-5),
                    Value::Str("ann".into()),
                    Value::Float(0.25),
                    Value::List(vec![Value::Str("a".into()), Value::Int(9)]),
                    Value::Bool(true),
                ]),
                Row(vec![
                    Value::Int(i64::MAX),
                    Value::Null,
                    Value::Float(f64::NEG_INFINITY),
                    Value::List(vec![]),
                    Value::Bool(false),
                ]),
            ],
        )
        .unwrap()
    }

    /// Recomputes every group checksum and the header checksum of a
    /// version-3 buffer, so a test can corrupt the *structure* without
    /// the checksums catching it first.
    fn reseal(bytes: &mut [u8]) {
        let Ok(Some(len)) = header_len(bytes) else {
            return;
        };
        if len < PREFIX_BYTES + 8 || len > bytes.len() {
            return;
        }
        if let Ok(header) = parse_header(bytes, len) {
            let table_at = len - 8 - header.groups.len() * GROUP_ENTRY_BYTES;
            for k in 0..header.groups.len() {
                if let Ok(range) = header.group_range(k, bytes.len() as u64) {
                    let sum = hash_bytes(&bytes[range.start as usize..range.end as usize]);
                    let at = table_at + k * GROUP_ENTRY_BYTES + 32;
                    bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
                }
            }
        }
        let sum = hash_bytes(&bytes[..len - 8]);
        bytes[len - 8..len].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn round_trip_preserves_everything() {
        let dc = sample();
        let decoded = decode(&encode(&dc)).unwrap();
        assert_eq!(decoded, dc);
    }

    #[test]
    fn empty_collection_round_trips() {
        let dc = DataCollection::empty(Schema::of(&[("a", DataType::Int)]));
        assert_eq!(decode(&encode(&dc)).unwrap(), dc);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(DataflowError::Codec(_))));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = encode(&sample());
        bytes[4] = 99;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_truncated_input() {
        let bytes = encode(&sample());
        for cut in [3, 8, 15, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode(&sample());
        bytes.push(0);
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn dictionary_shrinks_repetitive_strings() {
        let schema = Schema::of(&[("feats", DataType::List)]);
        let rows: Vec<Row> = (0..2_000)
            .map(|_| {
                Row(vec![Value::List(vec![Value::List(vec![
                    Value::Str("edu=Bachelors-of-Science".into()),
                    Value::Float(1.0),
                ])])])
            })
            .collect();
        let dc = DataCollection::new(schema, rows).unwrap();
        let encoded = encode(&dc);
        // Naive encoding would spend ≥ 24 bytes/row on the name alone;
        // the dictionary brings the whole row to a handful of bytes.
        assert!(
            encoded.len() < 2_000 * 20,
            "dictionary encoding too large: {} bytes",
            encoded.len()
        );
        assert_eq!(decode(&encoded).unwrap(), dc);
    }

    #[test]
    fn dictionary_index_out_of_range_rejected() {
        let schema = Schema::of(&[("s", DataType::Str)]);
        let dc = DataCollection::new(schema, vec![Row(vec![Value::Str("abc".into())])]).unwrap();
        let mut bytes = encode(&dc);
        // The one group is: values length (8 bytes), TAG_STR, varint
        // index 0, then the dictionary. Point the index past it.
        let at = read_header(&bytes).unwrap().len + 8 + 1;
        assert_eq!(bytes[at], 0);
        bytes[at] = 0x7f;
        assert!(decode(&bytes).unwrap_err().to_string().contains("checksum"));
        reseal(&mut bytes);
        assert!(decode(&bytes)
            .unwrap_err()
            .to_string()
            .contains("dictionary index 127"));
    }

    #[test]
    fn groups_decode_alone_and_together() {
        let dc = sample();
        let groups = [
            GroupSpec {
                start: 0,
                end: 1,
                key: 11,
            },
            GroupSpec {
                start: 1,
                end: 2,
                key: 22,
            },
        ];
        let bytes = encode_grouped(&dc, &groups);
        assert_eq!(decode(&bytes).unwrap(), dc);
        let header = read_header(&bytes).unwrap();
        assert_eq!(header.rows, 2);
        assert_eq!(
            header.groups.iter().map(|g| g.key).collect::<Vec<_>>(),
            [11, 22]
        );
        for (k, spec) in groups.iter().enumerate() {
            let range = header.group_range(k, bytes.len() as u64).unwrap();
            let part =
                decode_group(&header, k, &bytes[range.start as usize..range.end as usize]).unwrap();
            assert_eq!(part, dc.slice(spec.start, spec.end));
        }
    }

    #[test]
    fn a_flipped_payload_byte_fails_only_its_group() {
        let dc = sample();
        let groups = [
            GroupSpec {
                start: 0,
                end: 1,
                key: 1,
            },
            GroupSpec {
                start: 1,
                end: 2,
                key: 2,
            },
        ];
        let mut bytes = encode_grouped(&dc, &groups);
        let header = read_header(&bytes).unwrap();
        let first = header.group_range(0, bytes.len() as u64).unwrap();
        bytes[first.start as usize + 9] ^= 0x40;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("group 0 checksum"), "{err}");
        let slice = |k: usize| {
            let r = header.group_range(k, bytes.len() as u64).unwrap();
            &bytes[r.start as usize..r.end as usize]
        };
        assert!(decode_group(&header, 0, slice(0)).is_err());
        assert_eq!(
            decode_group(&header, 1, slice(1)).unwrap(),
            dc.slice(1, dc.len())
        );
    }

    #[test]
    fn version_2_files_still_decode() {
        // `sample()` exactly as the version-2 writer encoded it.
        let v2: &[u8] = &[
            72, 76, 88, 68, 2, 0, 0, 0, 5, 2, 105, 100, 1, 4, 110, 97, 109, 101, 3, 5, 115, 99,
            111, 114, 101, 2, 4, 116, 97, 103, 115, 4, 2, 111, 107, 0, 2, 3, 97, 110, 110, 1, 97,
            2, 3, 9, 5, 0, 4, 0, 0, 0, 0, 0, 0, 208, 63, 6, 2, 5, 1, 3, 18, 2, 3, 254, 255, 255,
            255, 255, 255, 255, 255, 255, 1, 0, 4, 0, 0, 0, 0, 0, 0, 240, 255, 6, 0, 1,
        ];
        assert_eq!(header_len(v2).unwrap(), None);
        assert_eq!(decode(v2).unwrap(), sample());
        assert!(read_header(v2).is_err());
    }

    /// `[name, value]` as a nested list, the form written before
    /// [`Value::Feats`] existed.
    fn legacy_pair(name: &str, value: f64) -> Value {
        Value::List(vec![Value::Str(name.into()), Value::Float(value)])
    }

    #[test]
    fn nested_list_feats_written_before_feature_cells_decode_to_lists() {
        // A version-3 file whose feats are nested lists, exactly as the
        // writer before feature cells encoded it.
        let old: &[u8] = &[
            72, 76, 88, 68, 3, 0, 0, 0, 68, 0, 0, 0, 1, 5, 102, 101, 97, 116, 115, 4, 3, 0, 0, 0,
            0, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 65, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 68, 4, 26, 163, 240, 92, 122, 248, 117, 94, 14, 251,
            126, 67, 166, 60, 45, 0, 0, 0, 0, 0, 0, 0, 6, 2, 6, 2, 5, 0, 4, 0, 0, 0, 0, 0, 0, 240,
            63, 6, 2, 5, 1, 4, 0, 0, 0, 0, 0, 0, 62, 64, 6, 0, 6, 1, 6, 2, 5, 0, 4, 0, 0, 0, 0, 0,
            0, 240, 63, 2, 6, 101, 100, 117, 61, 66, 83, 3, 97, 103, 101,
        ];
        let lists = DataCollection::new(
            Schema::of(&[("feats", DataType::List)]),
            vec![
                Row(vec![Value::List(vec![
                    legacy_pair("edu=BS", 1.0),
                    legacy_pair("age", 30.0),
                ])]),
                Row(vec![Value::List(vec![])]),
                Row(vec![Value::List(vec![legacy_pair("edu=BS", 1.0)])]),
            ],
        )
        .unwrap();
        assert_eq!(decode(old).unwrap(), lists);
        assert_eq!(encode(&lists), old, "lists are still written as tag 6");
    }

    /// A feature column: a name repeated across rows, a unique one, an
    /// empty cell.
    fn feats_sample() -> DataCollection {
        let bias: Arc<str> = Arc::from("bias");
        DataCollection::new(
            Schema::of(&[("feats", DataType::List)]),
            vec![
                Row(vec![Value::Feats(vec![
                    (Arc::clone(&bias), 1.0),
                    (Arc::from("edu=BS"), 0.5),
                ])]),
                Row(vec![Value::Feats(vec![])]),
                Row(vec![Value::Feats(vec![(bias, -2.0)])]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn feature_cells_round_trip_sharing_each_name() {
        let dc = feats_sample();
        let decoded = decode(&encode(&dc)).unwrap();
        assert_eq!(decoded, dc);
        let first_name = |r: usize| match decoded.row(r).get(0) {
            Value::Feats(pairs) => Arc::clone(&pairs[0].0),
            other => panic!("not a feature cell: {other:?}"),
        };
        assert!(Arc::ptr_eq(&first_name(0), &first_name(2)));
    }

    /// Rewrites the values of a one-group encoding with `edit`, then fixes
    /// the values length, the group length and both checksums, so only
    /// the value decoder can object.
    fn with_values(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let header = read_header(bytes).unwrap();
        let group = &bytes[header.len..];
        let values_end = 8 + u64::from_le_bytes(group[..8].try_into().unwrap()) as usize;
        let mut values = group[8..values_end].to_vec();
        edit(&mut values);
        let mut out = bytes[..header.len].to_vec();
        out.extend_from_slice(&(values.len() as u64).to_le_bytes());
        out.extend_from_slice(&values);
        out.extend_from_slice(&group[values_end..]);
        let group_len = (out.len() - header.len) as u64;
        let len_at = header.len - 8 - GROUP_ENTRY_BYTES + 16;
        out[len_at..len_at + 8].copy_from_slice(&group_len.to_le_bytes());
        reseal(&mut out);
        out
    }

    #[test]
    fn corrupt_feature_cells_are_codec_errors() {
        let dc = DataCollection::new(
            Schema::of(&[("feats", DataType::List)]),
            vec![Row(vec![Value::Feats(vec![(Arc::from("a"), 1.5)])])],
        )
        .unwrap();
        let bytes = encode(&dc);
        // The values: tag 7, one pair, dictionary index 0, the f64.
        assert_eq!(decode(&with_values(&bytes, |_| {})).unwrap(), dc);
        type Edit = fn(&mut Vec<u8>);
        let cases: [(&str, Edit, &str); 3] = [
            ("index out of range", |v| v[2] = 5, "dictionary index 5"),
            ("count past the group", |v| v[1] = 2, "feature count 2"),
            // The count bound sees the short pair before the f64 read does.
            (
                "truncated f64",
                |v| v.truncate(v.len() - 3),
                "feature count 1",
            ),
        ];
        for (case, edit, expected) in cases {
            let bad = with_values(&bytes, edit);
            let header = read_header(&bad).unwrap();
            let range = header.group_range(0, bad.len() as u64).unwrap();
            let group = &bad[range.start as usize..range.end as usize];
            for err in [
                decode(&bad).unwrap_err(),
                decode_group(&header, 0, group).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, DataflowError::Codec(msg) if msg.contains(expected)),
                    "{case}: {err}"
                );
            }
        }
    }

    #[test]
    fn varint_boundaries() {
        for value in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value);
            let mut cursor = Cursor {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(cursor.read_varint().unwrap(), value);
        }
    }

    #[test]
    fn zigzag_boundaries() {
        for value in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(zigzag_decode(zigzag_encode(value)), value);
        }
    }

    /// Feature pairs: names from a small shared vocabulary or unique.
    fn arb_pairs() -> impl Strategy<Value = Vec<(String, f64)>> {
        let name = prop_oneof![
            Just("bias".to_string()),
            Just("edu=BS".to_string()),
            "[a-z]{0,12}",
        ];
        proptest::collection::vec((name, -1e12f64..1e12), 0..5)
    }

    fn arb_value(depth: u32) -> BoxedStrategy<Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // Use finite floats: NaN breaks PartialEq-based comparison.
            (-1e12f64..1e12).prop_map(Value::Float),
            "[a-z]{0,12}".prop_map(Value::Str),
            arb_pairs().prop_map(|pairs| Value::Feats(
                pairs.into_iter().map(|(n, v)| (Arc::from(n), v)).collect()
            )),
            arb_pairs().prop_map(|pairs| Value::List(
                pairs.iter().map(|(n, v)| legacy_pair(n, *v)).collect()
            )),
        ];
        if depth == 0 {
            leaf.boxed()
        } else {
            prop_oneof![
                4 => leaf,
                1 => proptest::collection::vec(arb_value(depth - 1), 0..4)
                    .prop_map(Value::List),
            ]
            .boxed()
        }
    }

    fn arb_collection() -> impl Strategy<Value = DataCollection> {
        (
            1usize..5,
            proptest::collection::vec(proptest::collection::vec(arb_value(2), 4), 0..20),
        )
            .prop_map(|(ncols, rows)| {
                let fields = (0..ncols)
                    .map(|i| Field::new(format!("c{i}"), DataType::Any))
                    .collect();
                let schema = Schema::new(fields).unwrap();
                let rows: Vec<Row> = rows
                    .into_iter()
                    .map(|values| {
                        Row(values
                            .into_iter()
                            .take(ncols)
                            .chain(std::iter::repeat(Value::Null))
                            .take(ncols)
                            .collect())
                    })
                    .collect();
                DataCollection::new(schema, rows).unwrap()
            })
    }

    /// Cuts `[0, rows)` at the (sorted, deduplicated) `cuts`, keyed 1, 2, ….
    fn tiling(rows: usize, cuts: &[usize]) -> Vec<GroupSpec> {
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (rows + 1)).collect();
        bounds.extend([0, rows]);
        bounds.sort_unstable();
        bounds.dedup();
        bounds
            .windows(2)
            .enumerate()
            .map(|(k, w)| GroupSpec {
                start: w[0],
                end: w[1],
                key: k as u64 + 1,
            })
            .collect()
    }

    /// Every decoding entry point over `bytes`; none may panic.
    fn decode_everything(bytes: &[u8]) {
        let _ = decode(bytes);
        if let Ok(header) = read_header(bytes) {
            for k in 0..header.groups.len() {
                if let Ok(range) = header.group_range(k, bytes.len() as u64) {
                    let _ =
                        decode_group(&header, k, &bytes[range.start as usize..range.end as usize]);
                }
                // Lengths that disagree with the header, too.
                let _ = decode_group(&header, k, &bytes[header.len.min(bytes.len())..]);
            }
        }
    }

    /// `dc` rebuilt as segments cut at the groups of `tiling`: even
    /// pieces share `dc`'s rows, odd ones are copies of their own.
    fn segmented(dc: &DataCollection, groups: &[GroupSpec]) -> DataCollection {
        let pieces = groups.iter().enumerate().map(|(k, g)| {
            let piece = dc.slice(g.start, g.end);
            if k % 2 == 0 {
                piece
            } else {
                DataCollection::from_rows_unchecked(
                    Arc::clone(dc.schema()),
                    piece.rows().iter().cloned().collect(),
                )
            }
        });
        let empty = DataCollection::empty(Arc::clone(dc.schema()));
        DataCollection::concat_all(std::iter::once(empty).chain(pieces)).unwrap()
    }

    proptest! {
        /// A segmented collection is its flat form: equal, and its
        /// slices, concatenations and encodings are byte-identical.
        #[test]
        fn segmented_collections_slice_concat_and_encode_like_flat_ones(
            dc in arb_collection(),
            cuts in proptest::collection::vec(0usize..32, 0..6),
            a in 0usize..32,
            b in 0usize..32,
        ) {
            let n = dc.len();
            let flat = DataCollection::from_rows_unchecked(
                Arc::clone(dc.schema()),
                dc.rows().iter().cloned().collect(),
            );
            let groups = tiling(n, &cuts);
            let seg = segmented(&flat, &groups);
            prop_assert_eq!(&seg, &flat);
            prop_assert_eq!(seg.len(), n);
            prop_assert_eq!(encode(&seg), encode(&flat));
            prop_assert_eq!(encode_grouped(&seg, &groups), encode_grouped(&flat, &groups));

            let (lo, hi) = ((a % (n + 1)).min(b % (n + 1)), (a % (n + 1)).max(b % (n + 1)));
            let flat_slice = DataCollection::from_rows_unchecked(
                Arc::clone(dc.schema()),
                flat.rows().iter().skip(lo).take(hi - lo).cloned().collect(),
            );
            prop_assert_eq!(encode(&seg.slice(lo, hi)), encode(&flat_slice));
            prop_assert_eq!(seg.rows_range(lo, hi), flat_slice.rows());
            prop_assert_eq!(seg.rows_range(lo, hi).iter().len(), hi - lo);
            let rejoined = seg.slice(0, lo).concat(&seg.slice(lo, n)).unwrap();
            prop_assert_eq!(encode(&rejoined), encode(&flat));
        }

        #[test]
        fn round_trip_random_collections(dc in arb_collection()) {
            prop_assert_eq!(decode(&encode(&dc)).unwrap(), dc);
        }

        /// Random collections × random group boundaries: the whole
        /// decodes to the collection and each group to exactly its rows.
        #[test]
        fn grouped_round_trip_random_boundaries(
            dc in arb_collection(),
            cuts in proptest::collection::vec(0usize..32, 0..6),
        ) {
            let groups = tiling(dc.len(), &cuts);
            let bytes = encode_grouped(&dc, &groups);
            prop_assert_eq!(&decode(&bytes).unwrap(), &dc);
            let header = read_header(&bytes).unwrap();
            prop_assert_eq!(header.groups.len(), groups.len());
            for (k, spec) in groups.iter().enumerate() {
                prop_assert_eq!(header.groups[k].key, spec.key);
                let range = header.group_range(k, bytes.len() as u64).unwrap();
                let part = decode_group(
                    &header,
                    k,
                    &bytes[range.start as usize..range.end as usize],
                )
                .unwrap();
                prop_assert_eq!(part, dc.slice(spec.start, spec.end));
            }
        }

        /// Decoding arbitrary bytes must never panic — only error: raw
        /// bytes, bytes behind a valid version-3 prefix (so the header
        /// parser sees untrusted lengths and offsets), and valid two-group
        /// encodings — of mixed values, and of feature cells — with one
        /// byte changed and the checksums recomputed.
        #[test]
        fn decode_arbitrary_bytes_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..256),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            decode_everything(&bytes);
            let mut prefixed = MAGIC.to_vec();
            prefixed.extend_from_slice(&VERSION.to_le_bytes());
            prefixed.extend_from_slice(&(bytes.len().min(255) as u32).to_le_bytes());
            prefixed.extend_from_slice(&bytes);
            decode_everything(&prefixed);
            reseal(&mut prefixed);
            decode_everything(&prefixed);
            for valid in [sample(), feats_sample()] {
                let mut mutated = encode_grouped(&valid, &tiling(valid.len(), &[1]));
                let at = at % mutated.len();
                mutated[at] = byte;
                decode_everything(&mutated);
                reseal(&mut mutated);
                decode_everything(&mutated);
            }
        }
    }
}
