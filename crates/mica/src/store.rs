//! Partitioned key-value store (MICA's EREW mode, paper §IX-B).
//!
//! Keys are hashed to partitions; in EREW mode each partition is owned by
//! exactly one thread (here: one Altocumulus manager), so there is no
//! concurrency control. Each partition is a bucketed hash index over a
//! [`CircularLog`]: buckets hold `(tag, offset)` pairs, values live in the
//! log, and overwrites simply append and repoint — exactly MICA's lossy,
//! log-structured design.

use crate::log::CircularLog;

/// FNV-1a, the classic cheap hash for short keys.
fn hash64(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One EREW partition: a bucketed hash index plus a circular value log.
#[derive(Debug, Clone)]
pub struct Partition {
    buckets: Vec<Vec<(u64, u64)>>, // (key hash, log offset)
    log: CircularLog,
    entries: u64,
}

impl Partition {
    /// Creates a partition with `buckets` hash buckets and a `log_bytes`
    /// circular log.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn new(buckets: usize, log_bytes: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        Partition {
            buckets: vec![Vec::new(); buckets],
            log: CircularLog::new(log_bytes),
            entries: 0,
        }
    }

    fn bucket_of(&self, h: u64) -> usize {
        (h % self.buckets.len() as u64) as usize
    }

    /// Inserts or overwrites `key`.
    ///
    /// Returns `false` if the value cannot fit in the log at all.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> bool {
        let h = hash64(key);
        // The log entry stores key-length, key, value so GETs can verify.
        let mut entry = Vec::with_capacity(2 + key.len() + value.len());
        entry.extend_from_slice(&(key.len() as u16).to_le_bytes());
        entry.extend_from_slice(key);
        entry.extend_from_slice(value);
        let Some(offset) = self.log.append(&entry) else {
            return false;
        };
        let b = self.bucket_of(h);
        if let Some(slot) = self.buckets[b].iter_mut().find(|(kh, _)| *kh == h) {
            slot.1 = offset;
        } else {
            self.buckets[b].push((h, offset));
            self.entries += 1;
        }
        true
    }

    /// Looks up `key`, returning its value if present and not evicted.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let h = hash64(key);
        let b = self.bucket_of(h);
        let (_, offset) = self.buckets[b].iter().find(|(kh, _)| *kh == h)?;
        let entry = self.log.read(*offset)?;
        if entry.len() < 2 {
            return None;
        }
        let klen = u16::from_le_bytes([entry[0], entry[1]]) as usize;
        if entry.len() < 2 + klen || &entry[2..2 + klen] != key {
            return None; // hash collision with a different key, or lapped
        }
        Some(entry[2 + klen..].to_vec())
    }

    /// Number of live index entries (including ones whose log value may have
    /// been lapped — MICA's index is lossy by design).
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True iff no keys were ever inserted.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// The partitioned store: `partitions` EREW partitions, keys hashed across
/// them.
///
/// # Examples
///
/// ```
/// use mica::store::Mica;
///
/// let mut kv = Mica::new(4, 1024, 1 << 16);
/// kv.set(b"key", b"value");
/// assert_eq!(kv.get(b"key").as_deref(), Some(&b"value"[..]));
/// ```
#[derive(Debug, Clone)]
pub struct Mica {
    partitions: Vec<Partition>,
}

impl Mica {
    /// Creates a store with `partitions` partitions, each with
    /// `buckets_per_partition` buckets and a `log_bytes_per_partition` log.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn new(
        partitions: usize,
        buckets_per_partition: usize,
        log_bytes_per_partition: usize,
    ) -> Self {
        assert!(partitions > 0, "need at least one partition");
        Mica {
            partitions: (0..partitions)
                .map(|_| Partition::new(buckets_per_partition, log_bytes_per_partition))
                .collect(),
        }
    }

    /// The paper's configuration scaled to one manager: 2 M buckets and a
    /// 4 GB log are the defaults in MICA; tests use [`Mica::new`] with small
    /// sizes. This constructor uses 64 K buckets and a 64 MB log per
    /// partition to stay laptop-friendly while preserving structure.
    pub fn paper_scaled(partitions: usize) -> Self {
        Self::new(partitions, 1 << 16, 64 << 20)
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The partition that owns `key` (EREW ownership).
    pub fn partition_of(&self, key: &[u8]) -> usize {
        // Use the upper hash bits for partitioning so bucket selection
        // (lower bits) stays independent.
        ((hash64(key) >> 32) % self.partitions.len() as u64) as usize
    }

    /// Inserts or overwrites `key` in its owning partition.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> bool {
        let p = self.partition_of(key);
        self.partitions[p].set(key, value)
    }

    /// Looks up `key` in its owning partition.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let p = self.partition_of(key);
        self.partitions[p].get(key)
    }

    /// Direct access to a partition (the simulation maps one partition per
    /// manager thread).
    pub fn partition(&self, idx: usize) -> &Partition {
        &self.partitions[idx]
    }

    /// Total live index entries across partitions.
    pub fn len(&self) -> u64 {
        self.partitions.iter().map(Partition::len).sum()
    }

    /// True iff nothing was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut kv = Mica::new(4, 64, 4096);
        assert!(kv.set(b"alpha", b"1"));
        assert!(kv.set(b"beta", b"2"));
        assert_eq!(kv.get(b"alpha").unwrap(), b"1");
        assert_eq!(kv.get(b"beta").unwrap(), b"2");
        assert_eq!(kv.get(b"gamma"), None);
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut kv = Mica::new(2, 64, 4096);
        kv.set(b"k", b"old");
        kv.set(b"k", b"new");
        assert_eq!(kv.get(b"k").unwrap(), b"new");
        assert_eq!(kv.len(), 1, "overwrite must not grow the index");
    }

    #[test]
    fn partition_ownership_is_stable_and_spread() {
        let kv = Mica::new(8, 64, 4096);
        let mut used = std::collections::HashSet::new();
        for i in 0..256u32 {
            let key = i.to_le_bytes();
            let p = kv.partition_of(&key);
            assert_eq!(p, kv.partition_of(&key), "ownership must be stable");
            used.insert(p);
        }
        assert_eq!(used.len(), 8, "256 keys should cover all partitions");
    }

    #[test]
    fn eviction_after_log_wrap() {
        // Tiny log: writing many values laps the first one.
        let mut kv = Mica::new(1, 16, 256);
        kv.set(b"first", b"payload-first");
        for i in 0..50u32 {
            kv.set(&i.to_le_bytes(), &[0xAB; 16]);
        }
        assert_eq!(kv.get(b"first"), None, "lapped value must disappear");
    }

    #[test]
    fn many_keys_survive() {
        let mut kv = Mica::new(4, 1024, 1 << 20);
        for i in 0..10_000u32 {
            assert!(kv.set(&i.to_le_bytes(), &i.to_be_bytes()));
        }
        for i in 0..10_000u32 {
            assert_eq!(
                kv.get(&i.to_le_bytes()).unwrap(),
                i.to_be_bytes(),
                "key {i}"
            );
        }
        assert_eq!(kv.len(), 10_000);
    }

    #[test]
    fn values_of_paper_sizes() {
        // 16B keys, 512B values (the paper's dataset shape).
        let mut kv = Mica::new(2, 256, 1 << 20);
        let key = [7u8; 16];
        let value = [9u8; 512];
        kv.set(&key, &value);
        assert_eq!(kv.get(&key).unwrap(), value);
    }

    #[test]
    fn empty_store() {
        let kv = Mica::new(2, 4, 64);
        assert!(kv.is_empty());
        assert_eq!(kv.partitions(), 2);
    }
}
