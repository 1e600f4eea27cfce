//! The decoded-read cache: verified outputs kept in memory, so a repeated
//! read of a key is a refcount increment (module docs of
//! [`crate::store`], "Decoded reads").

use super::index::Loc;
use super::{IntermediateStore, StoreRead, DECODED_CACHE_BYTES, DECODED_ENTRY_BYTES};
use crate::ops::NodeOutput;
use crate::signature::Signature;
use helix_dataflow::fx::FxHashMap;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How many keys decoded once the decoded cache remembers while it waits
/// for their second decode.
const DECODED_ONCE_KEYS: usize = 256;

/// One admitted output.
#[derive(Debug)]
pub(super) struct Decoded {
    output: Arc<NodeOutput>,
    /// The location it was decoded from. A hit needs it still listed for
    /// the key.
    loc: Loc,
    /// Bytes the read that admitted it returned; a hit reports them.
    bytes: u64,
    /// [`NodeOutput::estimated_bytes`] of the output.
    size: usize,
    /// Last use, the entry's key in [`DecodedCache::lru`].
    used: u64,
}

/// The decoded-read cache. Lock order: a shard lock may be held while
/// taking this one, never the reverse.
#[derive(Debug, Default)]
pub(super) struct DecodedCache {
    pub(super) entries: FxHashMap<u64, Decoded>,
    /// Keys by last use, oldest first.
    lru: BTreeMap<u64, u64>,
    /// Keys decoded once and not admitted, oldest first.
    once: VecDeque<u64>,
    pub(super) bytes: usize,
    tick: u64,
    pub(super) hits: u64,
}

impl DecodedCache {
    /// The output held for `key`, if it was decoded from one of `locs`.
    pub(super) fn hit(&mut self, key: u64, locs: &[Loc]) -> Option<(Arc<NodeOutput>, u64)> {
        let entry = self
            .entries
            .get_mut(&key)
            .filter(|e| locs.contains(&e.loc))?;
        self.tick += 1;
        self.lru.remove(&entry.used);
        self.lru.insert(self.tick, key);
        entry.used = self.tick;
        self.hits += 1;
        Some((Arc::clone(&entry.output), entry.bytes))
    }

    /// Notes a verified decode of `key`: `true` when it is the second
    /// since the key was last remembered.
    fn decoded_before(&mut self, key: u64) -> bool {
        if let Some(at) = self.once.iter().position(|&k| k == key) {
            self.once.remove(at);
            return true;
        }
        if self.once.len() == DECODED_ONCE_KEYS {
            self.once.pop_front();
        }
        self.once.push_back(key);
        false
    }

    /// Admits `output`, then drops least recently used entries until the
    /// cache is back under its bound.
    fn insert(&mut self, key: u64, read: &StoreRead, loc: Loc, size: usize) {
        self.remove(key);
        self.tick += 1;
        self.lru.insert(self.tick, key);
        self.bytes += size;
        self.entries.insert(
            key,
            Decoded {
                output: Arc::clone(&read.output),
                loc,
                bytes: read.bytes,
                size,
                used: self.tick,
            },
        );
        while self.bytes > DECODED_CACHE_BYTES {
            let Some((_, oldest)) = self.lru.pop_first() else {
                break;
            };
            if let Some(entry) = self.entries.remove(&oldest) {
                self.bytes -= entry.size;
            }
        }
    }

    pub(super) fn remove(&mut self, key: u64) -> Option<Decoded> {
        let entry = self.entries.remove(&key)?;
        self.lru.remove(&entry.used);
        self.bytes -= entry.size;
        Some(entry)
    }

    /// Drops every entry decoded from incarnation `gen` of file `file`,
    /// handing them back when `keep` is set.
    pub(super) fn remove_file(&mut self, file: u64, gen: u64, keep: bool) -> Vec<(u64, Decoded)> {
        let keys: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.loc.file == file && e.loc.gen == gen)
            .map(|(&key, _)| key)
            .collect();
        let removed = keys
            .into_iter()
            .filter_map(|key| Some((key, self.remove(key)?)));
        removed.filter(|_| keep).collect()
    }

    /// Puts back an entry [`remove_file`](Self::remove_file) handed out,
    /// filed under a new location, unless the key was admitted again in
    /// between. Its last use stays as it was.
    pub(super) fn reinsert(&mut self, key: u64, entry: Decoded, loc: Loc) {
        if self.entries.contains_key(&key) {
            return;
        }
        let entry = Decoded { loc, ..entry };
        self.lru.insert(entry.used, key);
        self.bytes += entry.size;
        self.entries.insert(key, entry);
    }

    pub(super) fn clear(&mut self) {
        self.entries.clear();
        self.lru.clear();
        self.once.clear();
        self.bytes = 0;
    }
}

impl IntermediateStore {
    /// Offers a verified decode of `sig` from `loc` to the decoded cache,
    /// which admits the key's second one if it is small enough and `loc`
    /// still serves the key.
    pub(super) fn offer(&self, sig: Signature, loc: Loc, read: &StoreRead) {
        if !self.inner.decoded.lock().decoded_before(sig.0) {
            return;
        }
        let size = read.output.estimated_bytes();
        if size > DECODED_ENTRY_BYTES {
            return;
        }
        #[cfg(test)]
        {
            let pause = self.inner.pause_before_admit.lock().clone();
            if let Some(pause) = pause {
                pause.wait();
                pause.wait();
            }
        }
        // Re-checked under the key's shard lock: an `evict` or a dropped
        // file that won the race took the location away, and the key must
        // not come back through the cache.
        let shard = self.slot(sig.0).lock();
        if shard
            .keys
            .get(&sig.0)
            .is_some_and(|locs| locs.contains(&loc))
        {
            self.inner.decoded.lock().insert(sig.0, read, loc, size);
        }
    }
}
