//! The six standard YCSB workloads (Table 1 of the paper).

use aquila_sim::{Rng64, ScrambledZipfian};

/// Default key size in bytes (paper section 6.1: 30 B keys).
pub const KEY_SIZE: usize = 30;
/// Default value size in bytes (paper: 1 KiB values).
pub const VALUE_SIZE: usize = 1024;
/// Default scan length for workload E.
pub const SCAN_LEN: usize = 100;

/// A standard YCSB workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 50% reads, 50% updates.
    A,
    /// 95% reads, 5% updates.
    B,
    /// 100% reads.
    C,
    /// 95% reads, 5% inserts.
    D,
    /// 95% scans, 5% inserts.
    E,
    /// 50% reads, 50% read-modify-write.
    F,
}

impl Workload {
    /// All six workloads in order.
    pub const ALL: [Workload; 6] = [
        Workload::A,
        Workload::B,
        Workload::C,
        Workload::D,
        Workload::E,
        Workload::F,
    ];

    /// The operation mix (Table 1).
    pub fn mix(self) -> WorkloadMix {
        match self {
            Workload::A => WorkloadMix {
                reads: 0.5,
                updates: 0.5,
                inserts: 0.0,
                scans: 0.0,
                rmw: 0.0,
            },
            Workload::B => WorkloadMix {
                reads: 0.95,
                updates: 0.05,
                inserts: 0.0,
                scans: 0.0,
                rmw: 0.0,
            },
            Workload::C => WorkloadMix {
                reads: 1.0,
                updates: 0.0,
                inserts: 0.0,
                scans: 0.0,
                rmw: 0.0,
            },
            Workload::D => WorkloadMix {
                reads: 0.95,
                updates: 0.0,
                inserts: 0.05,
                scans: 0.0,
                rmw: 0.0,
            },
            Workload::E => WorkloadMix {
                reads: 0.0,
                updates: 0.0,
                inserts: 0.05,
                scans: 0.95,
                rmw: 0.0,
            },
            Workload::F => WorkloadMix {
                reads: 0.5,
                updates: 0.0,
                inserts: 0.0,
                scans: 0.0,
                rmw: 0.5,
            },
        }
    }

    /// The Table 1 description string.
    pub fn description(self) -> &'static str {
        match self {
            Workload::A => "50% reads, 50% updates",
            Workload::B => "95% reads, 5% updates",
            Workload::C => "100% reads",
            Workload::D => "95% reads, 5% inserts",
            Workload::E => "95% scans, 5% inserts",
            Workload::F => "50% reads, 50% read-modify-write",
        }
    }

    /// Single-letter label.
    pub fn label(self) -> char {
        match self {
            Workload::A => 'A',
            Workload::B => 'B',
            Workload::C => 'C',
            Workload::D => 'D',
            Workload::E => 'E',
            Workload::F => 'F',
        }
    }
}

/// Operation-type fractions of a workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadMix {
    /// Point-read fraction.
    pub reads: f64,
    /// Update (overwrite) fraction.
    pub updates: f64,
    /// Insert (new key) fraction.
    pub inserts: f64,
    /// Range-scan fraction.
    pub scans: f64,
    /// Read-modify-write fraction.
    pub rmw: f64,
}

impl WorkloadMix {
    /// Fractions sum to one (sanity).
    pub fn total(&self) -> f64 {
        self.reads + self.updates + self.inserts + self.scans + self.rmw
    }
}

/// What a single YCSB operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point read.
    Read,
    /// Overwrite an existing key.
    Update,
    /// Insert a new key.
    Insert,
    /// Range scan of [`SCAN_LEN`] records.
    Scan,
    /// Read then write the same key.
    ReadModifyWrite,
}

/// A generated operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// The operation type.
    pub kind: OpKind,
    /// The target key.
    pub key: Vec<u8>,
    /// Scan length (scans only).
    pub scan_len: usize,
}

/// Request-key distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Uniform over the keyspace (the paper's Figure 5 setting).
    Uniform,
    /// Scrambled Zipfian (the YCSB default).
    Zipfian,
}

/// Deterministic key/operation generator for one workload.
pub struct KeyGen {
    record_count: u64,
    inserted: u64,
    dist: Distribution,
    zipf: Option<ScrambledZipfian>,
    mix: WorkloadMix,
}

impl KeyGen {
    /// Creates a generator over `record_count` preloaded records.
    pub fn new(workload: Workload, record_count: u64, dist: Distribution) -> KeyGen {
        KeyGen {
            record_count,
            inserted: 0,
            dist,
            zipf: match dist {
                Distribution::Zipfian => Some(ScrambledZipfian::new(record_count)),
                Distribution::Uniform => None,
            },
            mix: workload.mix(),
        }
    }

    /// Formats key number `n` as a fixed-width 30-byte key: `"user"`,
    /// `n` in 20 zero-padded decimal digits (enough for any `u64`), then
    /// `'0'` padding.
    pub fn key_of(n: u64) -> Vec<u8> {
        let mut k = [b'0'; KEY_SIZE];
        k[..4].copy_from_slice(b"user");
        let mut rest = n;
        for digit in k[4..24].iter_mut().rev() {
            *digit = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        k.to_vec()
    }

    fn next_existing(&mut self, rng: &mut Rng64) -> u64 {
        let n = self.record_count + self.inserted;
        match self.dist {
            Distribution::Uniform => rng.below(n),
            Distribution::Zipfian => self.zipf.as_ref().expect("zipfian").sample(rng) % n,
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self, rng: &mut Rng64) -> Op {
        let r = rng.f64();
        let m = self.mix;
        let kind = if r < m.reads {
            OpKind::Read
        } else if r < m.reads + m.updates {
            OpKind::Update
        } else if r < m.reads + m.updates + m.inserts {
            OpKind::Insert
        } else if r < m.reads + m.updates + m.inserts + m.scans {
            OpKind::Scan
        } else {
            OpKind::ReadModifyWrite
        };
        let keynum = match kind {
            OpKind::Insert => {
                let k = self.record_count + self.inserted;
                self.inserted += 1;
                k
            }
            _ => self.next_existing(rng),
        };
        Op {
            kind,
            key: Self::key_of(keynum),
            scan_len: SCAN_LEN,
        }
    }

    /// Number of records currently in the keyspace.
    pub fn keyspace(&self) -> u64 {
        self.record_count + self.inserted
    }
}

/// Multiplier and increment of the LCG whose words make up a value.
const LCG_A: u64 = 6364136223846793005;
const LCG_C: u64 = 1442695040888963407;

/// Words per jump-ahead block: one default-sized (1 KiB) value.
const LCG_BLOCK: usize = VALUE_SIZE / 8;

/// Jump-ahead constants: `k + 1` LCG steps from `x` land on
/// `LCG_JUMP[k].0 * x + LCG_JUMP[k].1`, so the words of a block do not
/// wait on each other.
const LCG_JUMP: [(u64, u64); LCG_BLOCK] = {
    let mut jump = [(LCG_A, LCG_C); LCG_BLOCK];
    let mut k = 1;
    while k < LCG_BLOCK {
        let (a, c) = jump[k - 1];
        jump[k] = (
            a.wrapping_mul(LCG_A),
            c.wrapping_mul(LCG_A).wrapping_add(LCG_C),
        );
        k += 1;
    }
    jump
};

/// Generates a deterministic 1 KiB value for a key (verifiable content):
/// the little-endian words of an LCG seeded with the key's FNV-1a hash,
/// truncated to `size` bytes.
pub fn value_of(key: &[u8], size: usize) -> Vec<u8> {
    let mut x = 0xCBF29CE484222325u64;
    for &b in key {
        x ^= b as u64;
        x = x.wrapping_mul(0x100000001B3);
    }
    let jump = |k: usize, x: u64| {
        let (a, c) = LCG_JUMP[k];
        a.wrapping_mul(x).wrapping_add(c)
    };
    let mut v = vec![0; size];
    for block in v.chunks_mut(8 * LCG_BLOCK) {
        let whole = block.len() / 8;
        let mut words = block.chunks_exact_mut(8);
        for (k, w) in (&mut words).enumerate() {
            w.copy_from_slice(&jump(k, x).to_le_bytes());
        }
        let tail = words.into_remainder();
        if !tail.is_empty() {
            let n = tail.len();
            tail.copy_from_slice(&jump(whole, x).to_le_bytes()[..n]);
        }
        x = jump(LCG_BLOCK - 1, x);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_one() {
        for w in Workload::ALL {
            assert!((w.mix().total() - 1.0).abs() < 1e-9, "{w:?}");
        }
    }

    #[test]
    fn descriptions_match_table1() {
        assert_eq!(Workload::C.description(), "100% reads");
        assert_eq!(
            Workload::F.description(),
            "50% reads, 50% read-modify-write"
        );
        assert_eq!(Workload::E.label(), 'E');
    }

    #[test]
    fn keys_are_fixed_width_and_sorted() {
        let a = KeyGen::key_of(5);
        let b = KeyGen::key_of(50);
        assert_eq!(a.len(), KEY_SIZE);
        assert_eq!(b.len(), KEY_SIZE);
        assert!(a < b, "numeric order must match lexicographic order");
    }

    #[test]
    fn workload_c_is_all_reads() {
        let mut g = KeyGen::new(Workload::C, 1000, Distribution::Uniform);
        let mut rng = Rng64::new(1);
        for _ in 0..500 {
            assert_eq!(g.next_op(&mut rng).kind, OpKind::Read);
        }
    }

    #[test]
    fn workload_a_mixes_reads_and_updates() {
        let mut g = KeyGen::new(Workload::A, 1000, Distribution::Uniform);
        let mut rng = Rng64::new(2);
        let mut reads = 0;
        let mut updates = 0;
        for _ in 0..2000 {
            match g.next_op(&mut rng).kind {
                OpKind::Read => reads += 1,
                OpKind::Update => updates += 1,
                k => panic!("unexpected {k:?}"),
            }
        }
        let frac = reads as f64 / 2000.0;
        assert!((0.45..0.55).contains(&frac), "read fraction {frac}");
        assert!(updates > 0);
    }

    #[test]
    fn inserts_extend_keyspace() {
        let mut g = KeyGen::new(Workload::D, 100, Distribution::Uniform);
        let mut rng = Rng64::new(3);
        let mut saw_insert = false;
        for _ in 0..200 {
            let op = g.next_op(&mut rng);
            if op.kind == OpKind::Insert {
                saw_insert = true;
            }
        }
        assert!(saw_insert);
        assert!(g.keyspace() > 100);
    }

    #[test]
    fn workload_e_mostly_scans() {
        let mut g = KeyGen::new(Workload::E, 1000, Distribution::Zipfian);
        let mut rng = Rng64::new(4);
        let scans = (0..1000)
            .filter(|_| g.next_op(&mut rng).kind == OpKind::Scan)
            .count();
        assert!((900..=980).contains(&scans), "scan count {scans}");
    }

    #[test]
    fn values_deterministic_and_sized() {
        let k = KeyGen::key_of(7);
        let v1 = value_of(&k, VALUE_SIZE);
        let v2 = value_of(&k, VALUE_SIZE);
        assert_eq!(v1, v2);
        assert_eq!(v1.len(), VALUE_SIZE);
        assert_ne!(v1, value_of(&KeyGen::key_of(8), VALUE_SIZE));
    }

    /// Reference key: `format!` and `resize`.
    fn key_reference(n: u64) -> Vec<u8> {
        let mut k = format!("user{n:020}").into_bytes();
        k.resize(KEY_SIZE, b'0');
        k
    }

    /// Reference value: one serial LCG chain.
    fn value_reference(key: &[u8], size: usize) -> Vec<u8> {
        let mut h = 0xCBF29CE484222325u64;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001B3);
        }
        let mut v = Vec::with_capacity(size);
        let mut x = h;
        while v.len() < size {
            x = x.wrapping_mul(LCG_A).wrapping_add(LCG_C);
            v.extend_from_slice(&x.to_le_bytes());
        }
        v.truncate(size);
        v
    }

    #[test]
    fn records_match_the_reference_generators() {
        let mut ns = vec![0, 9, 10_000_000_000_000_000_000, u64::MAX];
        ns.extend((1..=19).map(|k| 10u64.pow(k) - 1));
        for &n in &ns {
            let key = KeyGen::key_of(n);
            assert_eq!(key, key_reference(n), "key {n}");
            for size in [0, 1, 7, 8, 9, 1000, 1024, 1025, 4096, 5000] {
                assert_eq!(
                    value_of(&key, size),
                    value_reference(&key, size),
                    "key {n} size {size}"
                );
            }
        }
    }

    #[test]
    fn uniform_spreads_requests() {
        let mut g = KeyGen::new(Workload::C, 10, Distribution::Uniform);
        let mut rng = Rng64::new(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(g.next_op(&mut rng).key);
        }
        assert_eq!(seen.len(), 10, "all keys hit under uniform");
    }
}
