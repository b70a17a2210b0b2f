//! Hash functions used across the workspace.
//!
//! * [`xxhash64`] — the one hash of a key's bytes, as
//!   [`Key::ring_hash`](crate::Key::ring_hash): its remainder mod the vnode
//!   count places the key on the ring, its top bits index the memstore row
//!   and pick the Merkle leaf. Its final avalanche makes every output bit
//!   depend on every key byte, so those uses do not correlate.
//! * [`fnv1a64`] / [`FnvHasher`] — tiny and fast; used for the Merkle
//!   content digests (a row's versions and clock, internal-node mixing),
//!   never to place or index a key.
//!
//! Both are implemented here (≈50 lines) rather than pulled in as
//! dependencies so the hash streams — and therefore data placement and the
//! deterministic simulation — can never drift with a crate upgrade.

use std::hash::Hasher;

/// FNV-1a, 64-bit.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

const XX_PRIME1: u64 = 0x9E37_79B1_85EB_CA87;
const XX_PRIME2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XX_PRIME3: u64 = 0x1656_67B1_9E37_79F9;
const XX_PRIME4: u64 = 0x85EB_CA77_C2B2_AE63;
const XX_PRIME5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

#[inline]
fn read_u32(b: &[u8]) -> u64 {
    u32::from_le_bytes(b[..4].try_into().unwrap()) as u64
}

#[inline]
fn xx_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(XX_PRIME2))
        .rotate_left(31)
        .wrapping_mul(XX_PRIME1)
}

#[inline]
fn xx_merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ xx_round(0, val))
        .wrapping_mul(XX_PRIME1)
        .wrapping_add(XX_PRIME4)
}

/// xxHash64 — the reference algorithm, bit-identical to the upstream
/// implementation (verified against published test vectors in the tests).
pub fn xxhash64(bytes: &[u8], seed: u64) -> u64 {
    let len = bytes.len() as u64;
    let mut rest = bytes;
    let mut h: u64;

    if rest.len() >= 32 {
        let mut v1 = seed.wrapping_add(XX_PRIME1).wrapping_add(XX_PRIME2);
        let mut v2 = seed.wrapping_add(XX_PRIME2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(XX_PRIME1);
        while rest.len() >= 32 {
            v1 = xx_round(v1, read_u64(rest));
            v2 = xx_round(v2, read_u64(&rest[8..]));
            v3 = xx_round(v3, read_u64(&rest[16..]));
            v4 = xx_round(v4, read_u64(&rest[24..]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = xx_merge_round(h, v1);
        h = xx_merge_round(h, v2);
        h = xx_merge_round(h, v3);
        h = xx_merge_round(h, v4);
    } else {
        h = seed.wrapping_add(XX_PRIME5);
    }

    h = h.wrapping_add(len);

    while rest.len() >= 8 {
        h ^= xx_round(0, read_u64(rest));
        h = h
            .rotate_left(27)
            .wrapping_mul(XX_PRIME1)
            .wrapping_add(XX_PRIME4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h ^= read_u32(rest).wrapping_mul(XX_PRIME1);
        h = h
            .rotate_left(23)
            .wrapping_mul(XX_PRIME2)
            .wrapping_add(XX_PRIME3);
        rest = &rest[4..];
    }
    for &b in rest {
        h ^= (b as u64).wrapping_mul(XX_PRIME5);
        h = h.rotate_left(11).wrapping_mul(XX_PRIME1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(XX_PRIME2);
    h ^= h >> 29;
    h = h.wrapping_mul(XX_PRIME3);
    h ^= h >> 32;
    h
}

/// Streaming FNV-1a as a `std::hash::Hasher`: successive writes hash as
/// their concatenation, so a digest over several fields needs no buffer.
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    #[inline]
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn xxhash_known_vectors() {
        // Reference vectors from the xxHash specification repository.
        assert_eq!(xxhash64(b"", 0), 0xef46db3751d8e999);
        assert_eq!(xxhash64(b"a", 0), 0xd24ec4f1a98c6e5b);
        assert_eq!(xxhash64(b"as", 0), 0x1c330fb2d66be179);
        assert_eq!(xxhash64(b"asd", 0), 0x631c37ce72a97393);
        assert_eq!(xxhash64(b"asdf", 0), 0x415872f599cea71e);
        // > 32 bytes exercises the vector lanes.
        assert_eq!(
            xxhash64(
                b"Call me Ishmael. Some years ago--never mind how long precisely-",
                0
            ),
            0x02a2e85470d6fd96
        );
    }

    #[test]
    fn xxhash_seed_changes_output() {
        assert_ne!(xxhash64(b"key", 0), xxhash64(b"key", 1));
    }

    #[test]
    fn fnv_hasher_matches_free_function() {
        let mut h = FnvHasher::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn fnv_hasher_incremental_writes_compose() {
        let mut h = FnvHasher::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn distributions_are_reasonable() {
        // 10k sequential keys over 64 buckets must not be wildly skewed for
        // either hash — this is what ring balance depends on.
        for hash in [fnv1a64 as fn(&[u8]) -> u64, |b: &[u8]| xxhash64(b, 0)] {
            let mut buckets = [0u32; 64];
            for i in 0..10_000 {
                let key = format!("test-{i:014}");
                buckets[(hash(key.as_bytes()) % 64) as usize] += 1;
            }
            let min = *buckets.iter().min().unwrap();
            let max = *buckets.iter().max().unwrap();
            assert!(min > 80 && max < 280, "bucket spread {min}..{max}");
        }
    }
}
