//! Typed message payload encoding.
//!
//! The simulator kernel moves opaque byte vectors; applications exchange
//! `f64` slices. This module is the (de)serialization seam, kept
//! deliberately dumb: little-endian `f64`s, no framing, since both
//! endpoints agree on types by construction.

/// Encode a slice of `f64` into a payload.
///
/// The values' 8-byte arrays are collected in one exact allocation and
/// flattened in place: a bulk copy. Filling a zeroed `vec![0u8; n]`
/// chunk by chunk is no faster and allocates through `calloc`, which
/// is slower than `malloc` for the one-value payloads of a scalar
/// reduction, the commonest message.
#[must_use]
pub fn encode_f64s(data: &[f64]) -> Vec<u8> {
    data.iter()
        .map(|x| x.to_le_bytes())
        .collect::<Vec<[u8; 8]>>()
        .into_flattened()
}

/// Decode a payload produced by [`encode_f64s`].
///
/// # Panics
/// Panics if the payload length is not a multiple of 8 — that is a
/// protocol bug between two ranks of the same binary, not a runtime
/// condition to recover from.
#[must_use]
pub fn decode_f64s(payload: &[u8]) -> Vec<f64> {
    assert!(
        payload.len().is_multiple_of(8),
        "payload of {} bytes is not a whole number of f64s",
        payload.len()
    );
    payload
        .chunks_exact(8)
        .map(|chunk| f64::from_le_bytes(chunk.try_into().expect("chunks of 8")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoder as it was before the bulk copy, one
    /// `extend_from_slice` per value: the reference for `encode_f64s`.
    fn reference_encode(data: &[f64]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(data.len() * 8);
        for &x in data {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        buf
    }

    /// Byte for byte the per-value encoder, over every length 0–17 of a
    /// mix of NaN payloads, signed zeros, infinities, subnormals and
    /// ordinary values.
    #[test]
    fn encode_matches_the_per_value_encoder() {
        let specials = [
            f64::NAN,
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            1.5,
            -2.25,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1e-300,
            -7.0,
        ];
        for len in 0..=17 {
            for rot in 0..specials.len() {
                let data: Vec<f64> = (0..len)
                    .map(|i| specials[(i + rot) % specials.len()])
                    .collect();
                assert_eq!(encode_f64s(&data), reference_encode(&data), "len {len}");
            }
        }
    }

    #[test]
    fn roundtrip_slice() {
        let xs = [1.5, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(decode_f64s(&encode_f64s(&xs)), xs);
    }

    #[test]
    fn empty_slice_roundtrips() {
        assert!(decode_f64s(&encode_f64s(&[])).is_empty());
    }

    #[test]
    fn nan_payload_survives_transport() {
        for nan in [f64::NAN, f64::from_bits(0x7ff8_dead_beef_0001)] {
            let d = decode_f64s(&encode_f64s(&[nan]));
            assert!(d[0].is_nan());
            assert_eq!(d[0].to_bits(), nan.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn ragged_payload_panics() {
        let _ = decode_f64s(&[0u8; 7]);
    }
}
