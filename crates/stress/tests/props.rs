//! Property tests for the token-bucket limiter and the operation mix.
//!
//! The limiter is a pure state machine over caller-supplied timestamps, so
//! the properties replay deterministic synthetic arrival sequences — no
//! real clock, no flakiness.

use vcgp_graph::generators;
use vcgp_stress::dist::DistSpec;
use vcgp_stress::rate::TokenBucket;
use vcgp_stress::scenario::ScenarioSpec;
use vcgp_testkit::prop::Source;
use vcgp_testkit::{prop_assert, prop_assert_eq, vcgp_props};

/// A seeded non-decreasing arrival sequence with mixed gap scales
/// (back-to-back bursts, sub-increment gaps, long idles).
fn draw_arrivals(src_seed: u64, count: usize, max_gap_ns: u64) -> Vec<u64> {
    let mut src = Source::new(src_seed);
    let mut t = 0u64;
    (0..count)
        .map(|_| {
            let gap = match src.next_below(4) {
                0 => 0,
                1 => src.next_below(1_000),
                2 => src.next_below(max_gap_ns / 4 + 1),
                _ => src.next_below(max_gap_ns + 1),
            };
            t = t.saturating_add(gap);
            t
        })
        .collect()
}

vcgp_props! {
    #![cases(48)]

    fn token_bucket_never_exceeds_rate_over_any_window(
        seed in 0u64..1_000_000,
        rate_hz in 1u64..100_000,
        burst in 1u32..8,
    ) {
        let mut tb = TokenBucket::new(rate_hz as f64, burst);
        let inc = tb.increment_ns();
        let tol = inc * u64::from(burst - 1);
        let arrivals = draw_arrivals(seed, 300, inc * 4);
        let admitted: Vec<u64> = arrivals
            .iter()
            .filter(|&&t| tb.try_acquire(t).is_ok())
            .copied()
            .collect();
        // GCRA admission bound: any window (a_i, a_j] of admitted arrivals
        // holds at most (elapsed + tolerance)/increment + 1 admissions,
        // i.e. rate·elapsed + burst.
        for i in 0..admitted.len() {
            for j in (i + 1)..admitted.len() {
                let in_window = (j - i) as u64;
                let elapsed = admitted[j] - admitted[i];
                let bound = (elapsed + tol) / inc + 1;
                prop_assert!(
                    in_window <= bound,
                    "window [{i},{j}]: {in_window} admitted, bound {bound} \
                     (elapsed {elapsed} ns, inc {inc}, burst {burst})"
                );
            }
        }
    }

    fn token_bucket_decisions_are_deterministic(
        seed in 0u64..1_000_000,
        rate_hz in 1u64..100_000,
        burst in 1u32..8,
    ) {
        let arrivals = draw_arrivals(seed, 200, 10_000_000);
        let mut a = TokenBucket::new(rate_hz as f64, burst);
        let mut b = TokenBucket::new(rate_hz as f64, burst);
        for &t in &arrivals {
            prop_assert_eq!(a.try_acquire(t), b.try_acquire(t));
            prop_assert_eq!(a.next_conforming_ns(), b.next_conforming_ns());
        }
    }

    fn token_bucket_wait_hint_admits_exactly_on_time(
        seed in 0u64..1_000_000,
        rate_hz in 1u64..10_000,
    ) {
        let mut tb = TokenBucket::new(rate_hz as f64, 1);
        let mut src = Source::new(seed);
        let mut now = 0u64;
        for _ in 0..100 {
            now = now.saturating_add(src.next_below(tb.increment_ns() * 2));
            match tb.try_acquire(now) {
                Ok(()) => {}
                Err(wait) => {
                    // Waiting exactly the hinted time must succeed.
                    now += wait;
                    prop_assert_eq!(tb.try_acquire(now), Ok(()));
                }
            }
        }
    }

    fn mix_operation_stream_is_reproducible(
        seed in 0u64..1_000_000,
        graph_seed in 0u64..1_000,
    ) {
        let g = generators::gnm_connected(32, 64, graph_seed);
        let mut spec = ScenarioSpec::preset("mixed", DistSpec::Uniform, 0.0).unwrap();
        spec.phases[0].ops = Some(100);
        let mix = spec.resolve(&g).unwrap().phases.remove(0).mix;
        for i in 0..100u64 {
            prop_assert_eq!(mix.op(seed, i), mix.op(seed, i));
        }
        let replay = spec.resolve(&g).unwrap().phases.remove(0).mix;
        for i in 0..100u64 {
            prop_assert_eq!(mix.op(seed, i), replay.op(seed, i));
        }
    }
}
