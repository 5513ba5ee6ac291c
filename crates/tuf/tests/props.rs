#![allow(clippy::expect_used)] // test/demo code: panicking on bad setup is the point

//! Property-based tests for the TUF invariants the schedulers rely on.

use eua_platform::TimeDelta;
use eua_tuf::Tuf;
use proptest::prelude::*;

fn arb_tuf() -> impl Strategy<Value = Tuf> {
    let step = (1.0f64..1e4, 1u64..10_000_000)
        .prop_map(|(u, d)| Tuf::step(u, TimeDelta::from_micros(d)).expect("valid step"));
    let linear = (1.0f64..1e4, 1u64..10_000_000)
        .prop_map(|(u, x)| Tuf::linear(u, TimeDelta::from_micros(x)).expect("valid linear"));
    let exponential = (1.0f64..1e4, 1u64..1_000_000, 1u64..10_000_000).prop_map(|(u, tau, x)| {
        Tuf::exponential(u, TimeDelta::from_micros(tau), TimeDelta::from_micros(x))
            .expect("valid exp")
    });
    let piecewise = (
        1u64..1_000_000,
        proptest::collection::vec(0.0f64..1.0, 1..6),
    )
        .prop_map(|(span, drops)| {
            // Build strictly decreasing utilities over increasing times.
            let mut points = vec![(TimeDelta::ZERO, 1000.0)];
            let mut u = 1000.0;
            for (i, d) in drops.iter().enumerate() {
                u *= d.max(0.01);
                points.push((TimeDelta::from_micros(span * (i as u64 + 1)), u));
            }
            Tuf::piecewise(points).expect("valid piecewise")
        });
    prop_oneof![step, linear, exponential, piecewise]
}

proptest! {
    #[test]
    fn utility_is_non_negative_and_non_increasing(tuf in arb_tuf(), mut offsets in proptest::collection::vec(0u64..20_000_000, 2..40)) {
        offsets.sort_unstable();
        let mut prev = f64::INFINITY;
        for us in offsets {
            let u = tuf.utility(TimeDelta::from_micros(us));
            prop_assert!(u >= 0.0);
            prop_assert!(u.is_finite());
            prop_assert!(u <= prev + 1e-9, "utility increased at {us}us: {u} > {prev}");
            prev = u;
        }
    }

    #[test]
    fn utility_at_zero_is_max(tuf in arb_tuf()) {
        prop_assert!((tuf.utility(TimeDelta::ZERO) - tuf.max_utility()).abs() < 1e-9);
    }

    #[test]
    fn utility_past_termination_is_zero(tuf in arb_tuf(), extra in 1u64..1_000_000) {
        let t = tuf.termination().saturating_add(TimeDelta::from_micros(extra));
        prop_assert_eq!(tuf.utility(t), 0.0);
    }

    #[test]
    fn critical_time_inverts_nu(tuf in arb_tuf(), nu in 0.0f64..=1.0) {
        let d = tuf.critical_time(nu).expect("valid nu must invert");
        prop_assert!(d <= tuf.termination());
        // Defining property: U(D) ≥ ν·U^max (within float slop).
        prop_assert!(
            tuf.utility(d) + 1e-6 >= nu * tuf.max_utility(),
            "U({d}) = {} < {}", tuf.utility(d), nu * tuf.max_utility()
        );
    }

    #[test]
    fn critical_time_is_maximal(tuf in arb_tuf(), nu in 0.01f64..=1.0) {
        let d = tuf.critical_time(nu).expect("valid nu");
        // One microsecond later must violate the bound (or run off the end).
        if d < tuf.termination() {
            let after = d.saturating_add(TimeDelta::from_micros(1));
            prop_assert!(
                tuf.utility(after) < nu * tuf.max_utility() + 1e-6,
                "critical time {d} is not maximal for nu={nu}"
            );
        }
    }

    #[test]
    fn critical_time_monotone_in_nu(tuf in arb_tuf(), a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let d_lo = tuf.critical_time(lo).expect("valid");
        let d_hi = tuf.critical_time(hi).expect("valid");
        // A stricter requirement can only move the critical time earlier.
        prop_assert!(d_hi <= d_lo, "nu {lo}->{d_lo}, {hi}->{d_hi}");
    }

    #[test]
    fn invalid_nu_rejected(tuf in arb_tuf(), nu in prop_oneof![-1e3f64..-1e-9, 1.0f64 + 1e-9..1e3]) {
        prop_assert_eq!(tuf.critical_time(nu), None);
    }
}
