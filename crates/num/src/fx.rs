//! A fast, non-cryptographic hasher for the engines' hot tables.
//!
//! Both exact engines key their memo and intern tables by small integer
//! tuples and interned structures, looked up hundreds of thousands of
//! times per analysis. SipHash's DoS resistance buys nothing there and
//! costs several times as much per probe, so those tables use
//! [`FastMap`] / [`FastSet`] instead.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// A fast, non-cryptographic hasher (the FxHash multiply-rotate scheme).
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// A [`HashMap`] keyed with [`FxHasher`] — the engines' hot-table map type.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A [`HashSet`] keyed with [`FxHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;
