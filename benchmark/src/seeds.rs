//! Seed derivation: every random choice the benchmark makes — matrix-value
//! seeds, tree seeds, request order, cold-request seeds — is a pure function
//! of the `--seed` argument, a stream label and an index, so the same seed
//! always yields the same inputs and independent streams never collide.

/// The `index`-th seed of the stream `stream` under the run seed `seed`
/// (FNV-1a over the label, then one splitmix64 round per component).
pub fn derive(seed: u64, stream: &str, index: u64) -> u64 {
    let mut label = 0xcbf2_9ce4_8422_2325u64;
    for byte in stream.bytes() {
        label = (label ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix(splitmix(seed ^ label).wrapping_add(index))
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::derive;

    #[test]
    fn streams_and_indices_are_independent() {
        assert_eq!(derive(42, "value", 3), derive(42, "value", 3));
        assert_ne!(derive(42, "value", 3), derive(42, "value", 4));
        assert_ne!(derive(42, "value", 3), derive(42, "tree", 3));
        assert_ne!(derive(42, "value", 3), derive(43, "value", 3));
    }
}
