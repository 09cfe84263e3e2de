//! Property tests for histogram merging and the parts round-trip: the
//! algebra shard snapshot merging and snapshot restore depend on when
//! they rebuild histograms and combine them in any order.

use pphcr_obs::Histogram;
use proptest::prelude::*;

fn from_values(values: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #[test]
    fn merge_is_commutative(
        a in prop::collection::vec(0u64..u64::MAX, 0..64),
        b in prop::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let (ha, hb) = (from_values(&a), from_values(&b));
        let mut ab = ha.clone();
        ab.merge_from(&hb);
        let mut ba = hb.clone();
        ba.merge_from(&ha);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count(), (a.len() + b.len()) as u64);
    }

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0u64..1_000_000u64, 0..32),
        b in prop::collection::vec(0u64..1_000_000u64, 0..32),
        c in prop::collection::vec(0u64..1_000_000u64, 0..32),
    ) {
        let (ha, hb, hc) = (from_values(&a), from_values(&b), from_values(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge_from(&hb);
        left.merge_from(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge_from(&hc);
        let mut right = ha.clone();
        right.merge_from(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_equals_recording_everything_in_one_histogram(
        a in prop::collection::vec(0u64..u64::MAX, 0..48),
        b in prop::collection::vec(0u64..u64::MAX, 0..48),
    ) {
        let mut merged = from_values(&a);
        merged.merge_from(&from_values(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        prop_assert_eq!(merged, from_values(&all));
    }

    #[test]
    fn parts_round_trip_is_identity(
        values in prop::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let h = from_values(&values);
        let back = Histogram::from_parts(h.count(), h.sum(), h.nonzero_buckets());
        prop_assert_eq!(back, Some(h));
    }
}
