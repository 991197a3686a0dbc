//! Property-based tests of the packed sub-word arithmetic and accumulators:
//! lane isolation, saturation bounds, pack/unpack round trips, and every
//! lane-wise operation checked lane by lane against Rust's native integer
//! operations on the lane's own type (`u8::saturating_add`,
//! `i16::wrapping_sub`, `abs_diff`, `min`/`max`, checked shifts, …).

use mom_isa::accumulator::Accumulator;
use mom_isa::packed::{Lane, PackedWord, Saturation};
use proptest::prelude::*;

fn lanes() -> impl Strategy<Value = Lane> {
    prop_oneof![
        Just(Lane::U8),
        Just(Lane::I8),
        Just(Lane::U16),
        Just(Lane::I16),
        Just(Lane::U32),
        Just(Lane::I32)
    ]
}

fn signed_lanes() -> impl Strategy<Value = Lane> {
    prop_oneof![Just(Lane::I8), Just(Lane::I16), Just(Lane::I32)]
}

fn sats() -> impl Strategy<Value = Saturation> {
    prop_oneof![Just(Saturation::Wrapping), Just(Saturation::Saturating)]
}

/// Words biased toward saturation boundaries: each 8-bit chunk is drawn from
/// the interesting edge set half the time, so 16/32-bit lanes also see MIN,
/// MAX, −1, 0 and ±1 patterns frequently.
fn edge_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(0x00u8),
        Just(0x01),
        Just(0x7F),
        Just(0x80),
        Just(0xFF),
        any::<u8>()
    ]
}

fn edge_half() -> impl Strategy<Value = u32> {
    (edge_byte(), edge_byte(), edge_byte(), edge_byte())
        .prop_map(|(a, b, c, d)| u32::from_le_bytes([a, b, c, d]))
}

fn words() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (edge_half(), edge_half()).prop_map(|(lo, hi)| u64::from(hi) << 32 | u64::from(lo)),
    ]
}

/// A native integer type one packed lane is made of. Lanes are read and
/// written with plain shifts and `as` casts on the raw `u64`, independently
/// of `PackedWord`'s own lane accessors.
trait Native: Copy + Into<i64> {
    const BITS: u32;
    fn from_bits(bits: u64) -> Self;
    fn to_bits(self) -> u64;
}

macro_rules! native {
    ($($t:ty),*) => {$(
        impl Native for $t {
            const BITS: u32 = <$t>::BITS;
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
            fn to_bits(self) -> u64 {
                self as u64 & (u64::MAX >> (64 - Self::BITS))
            }
        }
    )*};
}
native!(u8, i8, u16, i16, u32, i32);

/// Bind `$T` to the native type of `$lane` and evaluate `$body` with it.
macro_rules! with_native {
    ($lane:expr, |$T:ident| $body:expr) => {
        match $lane {
            Lane::U8 => {
                type $T = u8;
                $body
            }
            Lane::I8 => {
                type $T = i8;
                $body
            }
            Lane::U16 => {
                type $T = u16;
                $body
            }
            Lane::I16 => {
                type $T = i16;
                $body
            }
            Lane::U32 => {
                type $T = u32;
                $body
            }
            Lane::I32 => {
                type $T = i32;
                $body
            }
        }
    };
}

/// [`with_native!`] restricted to the signed lane types.
macro_rules! with_signed {
    ($lane:expr, |$T:ident| $body:expr) => {
        match $lane {
            Lane::I8 => {
                type $T = i8;
                $body
            }
            Lane::I16 => {
                type $T = i16;
                $body
            }
            Lane::I32 => {
                type $T = i32;
                $body
            }
            unsigned => unreachable!("{unsigned:?} is not a signed lane"),
        }
    };
}

fn split<T: Native>(word: u64) -> Vec<T> {
    (0..64 / T::BITS).map(|i| T::from_bits(word >> (i * T::BITS))).collect()
}

fn join<T: Native>(lanes: impl IntoIterator<Item = T>) -> PackedWord {
    PackedWord::new(
        lanes.into_iter().enumerate().fold(0, |w, (i, v)| w | v.to_bits() << (i as u32 * T::BITS)),
    )
}

/// The word whose lane `i` is `f(a[i], b[i])`; `U` has the width of `T`.
fn zip_native<T: Native, U: Native>(a: u64, b: u64, f: impl Fn(T, T) -> U) -> PackedWord {
    join(split::<T>(a).into_iter().zip(split::<T>(b)).map(|(x, y)| f(x, y)))
}

fn map_native<T: Native>(a: u64, f: impl Fn(T) -> T) -> PackedWord {
    join(split::<T>(a).into_iter().map(f))
}

/// The all-ones / all-zero lane mask of `f(a[i], b[i])`.
fn mask_native<T: Native>(a: u64, b: u64, f: impl Fn(T, T) -> bool) -> PackedWord {
    let ones = u64::MAX >> (64 - T::BITS);
    let lanes = split::<T>(a).into_iter().zip(split::<T>(b));
    PackedWord::new(lanes.enumerate().fold(0, |w, (i, (x, y))| {
        w | if f(x, y) { ones << (i as u32 * T::BITS) } else { 0 }
    }))
}

fn add_native(a: u64, b: u64, lane: Lane, sat: Saturation) -> PackedWord {
    with_native!(lane, |T| match sat {
        Saturation::Wrapping => zip_native::<T, T>(a, b, |x, y| x.wrapping_add(y)),
        Saturation::Saturating => zip_native::<T, T>(a, b, |x, y| x.saturating_add(y)),
    })
}

fn sub_native(a: u64, b: u64, lane: Lane, sat: Saturation) -> PackedWord {
    with_native!(lane, |T| match sat {
        Saturation::Wrapping => zip_native::<T, T>(a, b, |x, y| x.wrapping_sub(y)),
        Saturation::Saturating => zip_native::<T, T>(a, b, |x, y| x.saturating_sub(y)),
    })
}

fn abs_diff_native(a: u64, b: u64, lane: Lane) -> PackedWord {
    with_native!(lane, |T| zip_native::<T, _>(a, b, |x, y| x.abs_diff(y)))
}

/// Rounding-up average without widening: `a + b == 2(a | b) − (a ^ b)`.
fn avg_native(a: u64, b: u64, lane: Lane) -> PackedWord {
    with_native!(lane, |T| zip_native::<T, T>(a, b, |x, y| (x | y) - ((x ^ y) >> 1)))
}

fn min_native(a: u64, b: u64, lane: Lane) -> PackedWord {
    with_native!(lane, |T| zip_native::<T, T>(a, b, Ord::min))
}

fn max_native(a: u64, b: u64, lane: Lane) -> PackedWord {
    with_native!(lane, |T| zip_native::<T, T>(a, b, Ord::max))
}

fn cmp_gt_native(a: u64, b: u64, lane: Lane) -> PackedWord {
    with_native!(lane, |T| mask_native::<T>(a, b, |x, y| x > y))
}

proptest! {
    // Packed-word ops are cheap; 256 cases still finish in well under a
    // second. `PROPTEST_CASES` overrides this for deeper local runs.
    #![proptest_config(Config::with_cases(256))]

    #[test]
    fn lane_roundtrip(bits in any::<u64>(), lane in lanes()) {
        let w = PackedWord::new(bits);
        let rebuilt = PackedWord::from_lanes(lane, w.lanes(lane).into_iter());
        prop_assert_eq!(rebuilt, w);
    }

    #[test]
    fn lanes_array_agrees_with_per_index_extraction(bits in any::<u64>(), lane in lanes()) {
        // The non-allocating `Lanes` array is exactly the sequence of
        // per-index `lane()` reads: same length, same values, slice access
        // included.
        let w = PackedWord::new(bits);
        let vals = w.lanes(lane);
        prop_assert_eq!(vals.len(), lane.count());
        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(*v, w.lane(lane, i));
        }
        prop_assert_eq!(vals.as_slice().iter().sum::<i64>(), w.reduce_sum(lane));
    }

    #[test]
    fn saturating_results_stay_in_range(a in any::<u64>(), b in any::<u64>(), lane in lanes()) {
        let x = PackedWord::new(a);
        let y = PackedWord::new(b);
        for op in [x.add(y, lane, Saturation::Saturating), x.sub(y, lane, Saturation::Saturating)] {
            for i in 0..lane.count() {
                let v = op.lane(lane, i);
                prop_assert!(v >= lane.min_value() && v <= lane.max_value());
            }
        }
    }

    #[test]
    fn wrapping_add_matches_scalar_wrapping(a in any::<u64>(), b in any::<u64>()) {
        let x = PackedWord::new(a);
        let y = PackedWord::new(b);
        let sum = x.add(y, Lane::U8, Saturation::Wrapping);
        for i in 0..8 {
            let expect = (x.to_u8_lanes()[i]).wrapping_add(y.to_u8_lanes()[i]);
            prop_assert_eq!(sum.to_u8_lanes()[i], expect);
        }
    }

    #[test]
    fn abs_diff_is_symmetric_and_bounded(a in any::<u64>(), b in any::<u64>()) {
        let x = PackedWord::new(a);
        let y = PackedWord::new(b);
        prop_assert_eq!(x.abs_diff(y, Lane::U8), y.abs_diff(x, Lane::U8));
        prop_assert_eq!(x.sad(y, Lane::U8), y.sad(x, Lane::U8));
        prop_assert!(x.sad(y, Lane::U8) <= 8 * 255);
        prop_assert_eq!(x.abs_diff(x, Lane::U8), PackedWord::ZERO);
    }

    #[test]
    fn unpack_lo_hi_cover_all_lanes(a in any::<u64>(), b in any::<u64>()) {
        let x = PackedWord::new(a);
        let y = PackedWord::new(b);
        let lo = x.unpack_lo(y, Lane::U8).to_u8_lanes();
        let hi = x.unpack_hi(y, Lane::U8).to_u8_lanes();
        let mut seen: Vec<u8> = lo.iter().chain(hi.iter()).copied().collect();
        let mut expected: Vec<u8> = x.to_u8_lanes().iter().chain(y.to_u8_lanes().iter()).copied().collect();
        seen.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(seen, expected);
    }

    #[test]
    fn pack_saturates_to_destination_range(a in any::<u64>(), b in any::<u64>()) {
        let x = PackedWord::new(a);
        let y = PackedWord::new(b);
        let packed = x.pack(y, Lane::I16, false);
        for i in 0..8 {
            let v = packed.lane(Lane::U8, i);
            prop_assert!((0..=255).contains(&v));
        }
        let source = if i32::from(x.to_i16_lanes()[0]) < 0 { 0 } else { x.to_i16_lanes()[0].min(255) as i64 };
        prop_assert_eq!(packed.lane(Lane::U8, 0), source);
    }

    #[test]
    fn select_picks_only_from_inputs(mask in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let m = PackedWord::new(mask);
        let x = PackedWord::new(a);
        let y = PackedWord::new(b);
        let sel = PackedWord::select(m, x, y, Lane::U8);
        for i in 0..8 {
            let v = sel.lane(Lane::U8, i);
            prop_assert!(v == x.lane(Lane::U8, i) || v == y.lane(Lane::U8, i));
        }
    }

    #[test]
    fn accumulator_mul_add_matches_scalar(a in prop::collection::vec(-3000i64..3000, 4),
                                          b in prop::collection::vec(-3000i64..3000, 4),
                                          reps in 1usize..5) {
        let x = PackedWord::from_lanes(Lane::I16, a.iter().copied());
        let y = PackedWord::from_lanes(Lane::I16, b.iter().copied());
        let mut acc = Accumulator::new();
        for _ in 0..reps {
            acc.mul_add(x, y, Lane::I16);
        }
        let expect: i64 = a.iter().zip(&b).map(|(p, q)| p * q).sum::<i64>() * reps as i64;
        prop_assert_eq!(acc.reduce_sum(), expect);
    }

    #[test]
    fn accumulator_read_back_is_saturated(values in prop::collection::vec(-(1i64<<40)..(1i64<<40), 4),
                                          shift in 0u32..16) {
        let mut acc = Accumulator::new();
        for (i, v) in values.iter().enumerate() {
            acc.set_lane(Lane::I16, i, *v);
        }
        let packed = acc.read_packed(Lane::I16, shift, Saturation::Saturating);
        for i in 0..4 {
            let v = packed.lane(Lane::I16, i);
            prop_assert!((i16::MIN as i64..=i16::MAX as i64).contains(&v));
        }
    }
}

proptest! {
    #![proptest_config(Config::with_cases(1024))]

    #[test]
    fn add_matches_native(a in words(), b in words(), lane in lanes(), sat in sats()) {
        let (x, y) = (PackedWord::new(a), PackedWord::new(b));
        prop_assert_eq!(x.add(y, lane, sat), add_native(a, b, lane, sat));
    }

    #[test]
    fn sub_matches_native(a in words(), b in words(), lane in lanes(), sat in sats()) {
        let (x, y) = (PackedWord::new(a), PackedWord::new(b));
        prop_assert_eq!(x.sub(y, lane, sat), sub_native(a, b, lane, sat));
    }

    #[test]
    fn abs_diff_matches_native(a in words(), b in words(), lane in lanes()) {
        let (x, y) = (PackedWord::new(a), PackedWord::new(b));
        prop_assert_eq!(x.abs_diff(y, lane), abs_diff_native(a, b, lane));
    }

    #[test]
    fn avg_matches_native(a in words(), b in words(), lane in lanes()) {
        let (x, y) = (PackedWord::new(a), PackedWord::new(b));
        prop_assert_eq!(x.avg(y, lane), avg_native(a, b, lane));
    }

    #[test]
    fn min_max_match_native(a in words(), b in words(), lane in lanes()) {
        let (x, y) = (PackedWord::new(a), PackedWord::new(b));
        prop_assert_eq!(x.min(y, lane), min_native(a, b, lane));
        prop_assert_eq!(x.max(y, lane), max_native(a, b, lane));
    }

    #[test]
    fn compares_match_native(a in words(), b in words(), lane in lanes()) {
        let (x, y) = (PackedWord::new(a), PackedWord::new(b));
        prop_assert_eq!(x.cmp_eq(y, lane), with_native!(lane, |T| mask_native::<T>(a, b, |p, q| p == q)));
        prop_assert_eq!(x.cmp_gt(y, lane), cmp_gt_native(a, b, lane));
    }

    #[test]
    fn select_matches_native(m in words(), a in words(), b in words(), lane in lanes()) {
        let (mask, x, y) = (PackedWord::new(m), PackedWord::new(a), PackedWord::new(b));
        let expect = with_native!(lane, |T| join(
            split::<T>(m)
                .into_iter()
                .zip(split::<T>(a).into_iter().zip(split::<T>(b)))
                .map(|(k, (p, q))| if k != 0 { p } else { q }),
        ));
        prop_assert_eq!(PackedWord::select(mask, x, y, lane), expect);
    }

    #[test]
    fn abs_neg_match_native(a in words(), lane in signed_lanes()) {
        let x = PackedWord::new(a);
        prop_assert_eq!(x.abs(lane), with_signed!(lane, |T| map_native::<T>(a, |p| p.wrapping_abs())));
        prop_assert_eq!(x.neg(lane), with_signed!(lane, |T| map_native::<T>(a, |p| p.wrapping_neg())));
        // Unsigned lanes are their own absolute value; negation wraps.
        let unsigned = lane.as_unsigned();
        prop_assert_eq!(x.abs(unsigned), x);
        prop_assert_eq!(x.neg(unsigned), with_native!(unsigned, |T| map_native::<T>(a, |p| p.wrapping_neg())));
    }

    #[test]
    fn shifts_match_native(a in words(), lane in signed_lanes(), amount in 0u32..40) {
        // `amount` deliberately overshoots every lane width: logical shifts
        // by the full width or more clear the lane, arithmetic ones fill it
        // with the sign.
        let x = PackedWord::new(a);
        let unsigned = lane.as_unsigned();
        let shl = with_native!(unsigned, |T| map_native::<T>(a, |p| p.checked_shl(amount).unwrap_or(0)));
        let shr = with_native!(unsigned, |T| map_native::<T>(a, |p| p.checked_shr(amount).unwrap_or(0)));
        let sar = with_signed!(lane, |T| {
            map_native::<T>(a, |p| p.checked_shr(amount).unwrap_or(if p < 0 { -1 } else { 0 }))
        });
        // Shifts are bit operations: the lane's signedness picks only
        // between the logical and the arithmetic right shift.
        for l in [lane, unsigned] {
            prop_assert_eq!(x.shl(l, amount), shl);
            prop_assert_eq!(x.shr_logical(l, amount), shr);
            prop_assert_eq!(x.shr_arith(l, amount), sar);
        }
    }

    #[test]
    fn reductions_match_native(a in words(), b in words(), lane in lanes()) {
        let (x, y) = (PackedWord::new(a), PackedWord::new(b));
        let sum = with_native!(lane, |T| split::<T>(a).into_iter().map(Into::<i64>::into).sum::<i64>());
        prop_assert_eq!(x.reduce_sum(lane), sum);
        let sad = with_native!(lane, |T| split::<T>(a)
            .into_iter()
            .zip(split::<T>(b))
            .map(|(p, q)| i64::from(p.abs_diff(q)))
            .sum::<i64>());
        prop_assert_eq!(x.sad(y, lane), sad);
    }

    #[test]
    fn accumulator_abs_diff_add_matches_lane_reference(a in words(), b in words(), lane in lanes()) {
        let (x, y) = (PackedWord::new(a), PackedWord::new(b));
        let mut acc = Accumulator::new();
        acc.abs_diff_add(x, y, lane);
        let (av, bv) = (x.lanes(lane), y.lanes(lane));
        for i in 0..av.len() {
            prop_assert_eq!(acc.lane(i), (av[i] - bv[i]).abs());
        }
    }

    // 32-bit lanes are excluded: a squared 32-bit difference can exceed
    // `i64`, which panics in debug builds. Kernels only square 8/16-bit data.
    #[test]
    fn accumulator_sqr_diff_add_matches_lane_reference(
        a in words(),
        b in words(),
        lane in prop_oneof![Just(Lane::U8), Just(Lane::I8), Just(Lane::U16), Just(Lane::I16)],
    ) {
        let (x, y) = (PackedWord::new(a), PackedWord::new(b));
        let mut acc = Accumulator::new();
        acc.sqr_diff_add(x, y, lane);
        let (av, bv) = (x.lanes(lane), y.lanes(lane));
        for i in 0..av.len() {
            let d = av[i] - bv[i];
            prop_assert_eq!(acc.lane(i), d * d);
        }
    }
}

/// Exhaustive 8-bit two-lane sweep: every (a, b) byte pair through every
/// 8-bit op in both saturation modes. 64k pairs per op — small enough to run
/// in a normal test pass, and it removes any reliance on the proptest
/// sampler finding the carry/borrow corner cases.
#[test]
fn exhaustive_byte_pairs() {
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            let x = PackedWord::from_u8_lanes([a, 0, 0, 0, 0, 0, 0, b]);
            let y = PackedWord::from_u8_lanes([b, 0, 0, 0, 0, 0, 0, a]);
            let (xb, yb) = (x.bits(), y.bits());
            for lane in [Lane::U8, Lane::I8] {
                for sat in [Saturation::Wrapping, Saturation::Saturating] {
                    assert_eq!(x.add(y, lane, sat), add_native(xb, yb, lane, sat), "add {a} {b} {lane:?} {sat:?}");
                    assert_eq!(x.sub(y, lane, sat), sub_native(xb, yb, lane, sat), "sub {a} {b} {lane:?} {sat:?}");
                }
                assert_eq!(x.min(y, lane), min_native(xb, yb, lane), "min {a} {b} {lane:?}");
                assert_eq!(x.max(y, lane), max_native(xb, yb, lane), "max {a} {b} {lane:?}");
                assert_eq!(x.avg(y, lane), avg_native(xb, yb, lane), "avg {a} {b} {lane:?}");
                assert_eq!(x.abs_diff(y, lane), abs_diff_native(xb, yb, lane), "abs_diff {a} {b} {lane:?}");
                assert_eq!(x.cmp_gt(y, lane), cmp_gt_native(xb, yb, lane), "cmp_gt {a} {b} {lane:?}");
            }
        }
    }
}
