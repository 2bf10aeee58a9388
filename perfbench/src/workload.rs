//! The three workloads, their seeded op streams, and the value format the
//! output checks rely on.
//!
//! Every value encodes the id of the key it was written under and a
//! version, plus a filler derived from both, so a lookup or scan that
//! returns a misrouted, stale-format or corrupted value is caught on the
//! spot. Writes are partitioned by key parity between the two client
//! threads, so each key has one writer and its last acknowledged version
//! is known exactly for the post-recovery check.

use dinomo_workload::{key_for, ZipfianGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Key length in bytes (big-endian ids, so key order is id order).
pub const KEY_LEN: usize = 8;
/// Value length in bytes.
pub const VALUE_LEN: usize = 128;
/// Closed-loop client threads.
pub const CLIENTS: u64 = 2;
/// Longest scan a `scan_e` op asks for (lengths are uniform in `1..=MAX`).
pub const MAX_SCAN_LEN: usize = 100;
/// Zipf exponent of the skewed workloads (YCSB default).
pub const ZIPF_THETA: f64 = 0.99;

/// How keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    Uniform,
    Zipf(f64),
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Keys bulk-loaded before the window (ids `0..keys`).
    pub keys: u64,
    /// Fractions of lookups, updates, scans and inserts (sum to 1).
    pub lookup: f64,
    pub update: f64,
    pub scan: f64,
    pub insert: f64,
    pub dist: Dist,
    pub cache_bytes_per_kn: usize,
    /// Hottest keys selectively replicated after the load.
    pub replicated_keys: usize,
    pub replication_factor: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "read_hot",
        keys: 20_000,
        lookup: 0.95,
        update: 0.05,
        scan: 0.0,
        insert: 0.0,
        dist: Dist::Zipf(ZIPF_THETA),
        cache_bytes_per_kn: 2 << 20,
        replicated_keys: 8,
        replication_factor: 2,
    },
    Spec {
        name: "write_spill",
        keys: 200_000,
        lookup: 0.5,
        update: 0.5,
        scan: 0.0,
        insert: 0.0,
        dist: Dist::Uniform,
        cache_bytes_per_kn: 256 << 10,
        replicated_keys: 0,
        replication_factor: 0,
    },
    Spec {
        name: "scan_e",
        keys: 100_000,
        lookup: 0.0,
        update: 0.0,
        scan: 0.95,
        insert: 0.05,
        dist: Dist::Zipf(ZIPF_THETA),
        cache_bytes_per_kn: 2 << 20,
        replicated_keys: 0,
        replication_factor: 0,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The parameter record printed with every run.
    pub fn describe(&self, seed: u64) -> String {
        let dist = match self.dist {
            Dist::Uniform => "uniform".to_string(),
            Dist::Zipf(theta) => format!("zipf(theta={theta},scrambled)"),
        };
        format!(
            "workload={} seed={seed} keys={} key_bytes={KEY_LEN} value_bytes={VALUE_LEN} \
             mix=lookup:{}/update:{}/scan:{}/insert:{} dist={dist} scan_len=1..={MAX_SCAN_LEN} \
             cache_bytes_per_kn={} replicated={}x{} clients={CLIENTS}",
            self.name,
            self.keys,
            self.lookup,
            self.update,
            self.scan,
            self.insert,
            self.cache_bytes_per_kn,
            self.replicated_keys,
            self.replication_factor,
        )
    }

    /// Key sampler over the loaded ids.
    pub fn sampler(&self) -> KeySampler {
        match self.dist {
            Dist::Uniform => KeySampler::Uniform(self.keys),
            Dist::Zipf(theta) => KeySampler::Zipf(ZipfianGenerator::new(self.keys, theta, true)),
        }
    }
}

#[derive(Debug, Clone)]
pub enum KeySampler {
    Uniform(u64),
    Zipf(ZipfianGenerator),
}

impl KeySampler {
    pub fn next(&self, rng: &mut StdRng) -> u64 {
        match self {
            KeySampler::Uniform(n) => rng.gen_range(0..*n),
            KeySampler::Zipf(z) => z.next(rng),
        }
    }

    /// The `k` most popular ids (empty for uniform).
    pub fn hottest(&self, k: usize) -> Vec<u64> {
        match self {
            KeySampler::Uniform(_) => Vec::new(),
            KeySampler::Zipf(z) => z.hottest(k),
        }
    }
}

/// One operation of a client's stream. Ids, not key bytes, so the checks
/// can compare against the id a value encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Lookup(u64),
    /// Overwrite of a loaded key, or insert of a fresh one.
    Write {
        id: u64,
        version: u64,
    },
    Scan {
        start: u64,
        n: usize,
    },
}

/// Per-thread seeded op stream.
pub struct OpStream {
    spec: Spec,
    sampler: KeySampler,
    rng: StdRng,
    thread: u64,
    next_seq: u64,
    next_insert: u64,
}

impl OpStream {
    pub fn new(spec: Spec, sampler: KeySampler, seed: u64, thread: u64) -> Self {
        OpStream {
            spec,
            sampler,
            rng: StdRng::seed_from_u64(mix64(seed ^ mix64(thread + 1))),
            thread,
            next_seq: 1,
            next_insert: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let s = self.spec;
        let u: f64 = self.rng.gen();
        if u < s.lookup {
            Op::Lookup(self.sampler.next(&mut self.rng))
        } else if u < s.lookup + s.update {
            let drawn = self.sampler.next(&mut self.rng);
            // This thread's parity twin of the drawn key: single writer
            // per key, popularity of the drawn key's neighbourhood kept.
            let id = (drawn & !1) | self.thread;
            let id = if id < s.keys { id } else { drawn & !1 };
            Op::Write {
                id,
                version: self.version(),
            }
        } else if u < s.lookup + s.update + s.scan {
            Op::Scan {
                start: self.sampler.next(&mut self.rng),
                n: self.rng.gen_range(1..MAX_SCAN_LEN + 1),
            }
        } else {
            let id = s.keys + self.next_insert * CLIENTS + self.thread;
            self.next_insert += 1;
            Op::Write {
                id,
                version: self.version(),
            }
        }
    }

    fn version(&mut self) -> u64 {
        let v = ((self.thread + 1) << 48) | self.next_seq;
        self.next_seq += 1;
        v
    }
}

/// SplitMix64 finaliser.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn key(id: u64) -> Vec<u8> {
    key_for(id, KEY_LEN)
}

pub fn key_id(key: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(key.try_into().ok()?))
}

/// Bytes `16..VALUE_LEN` of the value for `(id, version)`.
fn filler(id: u64, version: u64) -> impl Iterator<Item = u8> {
    let word = mix64(id ^ version.rotate_left(17));
    (16..VALUE_LEN).map(move |i| word.rotate_right((i % 8) as u32 * 8) as u8 ^ i as u8)
}

/// The value written for `(id, version)`; loaded values have version 0.
pub fn value(id: u64, version: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&id.to_be_bytes());
    v.extend_from_slice(&version.to_be_bytes());
    v.extend(filler(id, version));
    v
}

/// The version a value carries, if it is a well-formed value for `id`.
pub fn check_value(id: u64, v: &[u8]) -> Option<u64> {
    if v.len() != VALUE_LEN || v[..8] != id.to_be_bytes() {
        return None;
    }
    let version = u64::from_be_bytes(v[8..16].try_into().ok()?);
    v[16..]
        .iter()
        .copied()
        .eq(filler(id, version))
        .then_some(version)
}

/// Check one scan reply: at most `n` distinct keys in ascending order, all
/// `>= start`, each with a valid value; inside the loaded range
/// (`0..loaded`, never deleted) the keys must be exactly the next ids
/// after `start`, so a silently short or gapped scan fails too.
pub fn check_scan(
    start: u64,
    n: usize,
    loaded: u64,
    pairs: &[(Vec<u8>, Vec<u8>)],
) -> Result<(), String> {
    if pairs.len() > n {
        return Err(format!("scan({start},{n}) returned {} pairs", pairs.len()));
    }
    let expected_min = (n as u64).min(loaded.saturating_sub(start)) as usize;
    if pairs.len() < expected_min {
        return Err(format!(
            "scan({start},{n}) returned {} pairs, loaded range has {expected_min}",
            pairs.len()
        ));
    }
    let mut prev: Option<u64> = None;
    for (i, (k, v)) in pairs.iter().enumerate() {
        let id = key_id(k).ok_or_else(|| format!("scan({start},{n}): bad key {k:?}"))?;
        if id < start || prev.is_some_and(|p| id <= p) {
            return Err(format!("scan({start},{n}): key {id} out of order at {i}"));
        }
        if id < loaded && id != start + i as u64 {
            return Err(format!("scan({start},{n}): gap, key {id} at position {i}"));
        }
        if check_value(id, v).is_none() {
            return Err(format!("scan({start},{n}): bad value for key {id}"));
        }
        prev = Some(id);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_reject_foreign_keys() {
        let v = value(42, 7);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(check_value(42, &v), Some(7));
        assert_eq!(check_value(43, &v), None);
        let mut corrupt = v.clone();
        corrupt[100] ^= 1;
        assert_eq!(check_value(42, &corrupt), None);
    }

    #[test]
    fn streams_repeat_per_seed_and_writes_keep_parity() {
        let spec = spec("write_spill").unwrap();
        let a: Vec<Op> = {
            let mut s = OpStream::new(spec, spec.sampler(), 5, 1);
            (0..1000).map(|_| s.next_op()).collect()
        };
        let mut s = OpStream::new(spec, spec.sampler(), 5, 1);
        let b: Vec<Op> = (0..1000).map(|_| s.next_op()).collect();
        assert_eq!(a, b);
        assert!(a
            .iter()
            .all(|op| !matches!(op, Op::Write { id, .. } if id % 2 != 1)));
    }

    #[test]
    fn scan_check_catches_gaps_and_disorder() {
        let pair = |id: u64| (key(id), value(id, 0));
        assert!(check_scan(5, 3, 100, &[pair(5), pair(6), pair(7)]).is_ok());
        assert!(check_scan(5, 3, 100, &[pair(5), pair(7)]).is_err());
        assert!(check_scan(5, 3, 100, &[pair(5), pair(6)]).is_err());
        assert!(check_scan(98, 5, 100, &[pair(98), pair(99), pair(101)]).is_ok());
        assert!(check_scan(98, 5, 100, &[pair(98), pair(99), pair(99)]).is_err());
    }
}
