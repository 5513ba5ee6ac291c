#![allow(clippy::expect_used)] // test/demo code: panicking on bad setup is the point

//! Property-based tests for frequency/energy arithmetic.

use eua_platform::{select_freq, Cycles, EnergySetting, Frequency, FrequencyTable, TimeDelta};
use proptest::prelude::*;

fn arb_table() -> impl Strategy<Value = FrequencyTable> {
    proptest::collection::btree_set(1u64..2_000, 1..12)
        .prop_map(|set| FrequencyTable::new(set).expect("sorted positive set is valid"))
}

proptest! {
    #[test]
    fn execution_time_is_sufficient(mhz in 1u64..2_000, cycles in 0u64..10_000_000_000) {
        let f = Frequency::from_mhz(mhz);
        let t = f.execution_time(Cycles::new(cycles));
        // Work achievable in that time covers the demand...
        prop_assert!(f.cycles_in(t).get() >= cycles);
        // ...and one microsecond less would not (tightness).
        if !t.is_zero() {
            let shorter = t.saturating_sub(TimeDelta::from_micros(1));
            prop_assert!(f.cycles_in(shorter).get() < cycles);
        }
    }

    #[test]
    fn select_freq_returns_lowest_sufficient(table in arb_table(), demand in 0.0f64..3_000.0) {
        let f = select_freq(&table, demand);
        prop_assert!(table.as_slice().contains(&f));
        if demand <= table.max().as_f64() {
            // Sufficient...
            prop_assert!(f.as_f64() >= demand);
            // ...and minimal among sufficient table entries.
            for cand in table.iter() {
                if cand.as_f64() >= demand {
                    prop_assert!(f <= cand);
                }
            }
        } else {
            prop_assert_eq!(f, table.max());
        }
    }

    #[test]
    fn energy_per_cycle_positive_for_paper_settings(mhz in 1u64..2_000) {
        let f = Frequency::from_mhz(mhz);
        for setting in EnergySetting::all() {
            let m = setting.model(Frequency::from_mhz(2_000));
            prop_assert!(m.energy_per_cycle(f) > 0.0);
        }
    }

    #[test]
    fn energy_optimal_speed_is_a_minimum(s0_rel in 0.01f64..2.0, s1_rel in 0.0f64..2.0) {
        let setting = EnergySetting::custom("p", 1.0, 0.0, s1_rel, s0_rel).expect("valid");
        let m = setting.model(Frequency::from_mhz(100));
        let (s3, s2, s1, s0) = m.coefficients();
        let e = |f: f64| s3 * f * f + s2 * f + s1 + s0 / f;
        let opt = m.energy_optimal_speed();
        prop_assert!(opt > 0.0);
        prop_assert!(e(opt) <= e(opt * 1.001) + 1e-9);
        prop_assert!(e(opt) <= e(opt * 0.999) + 1e-9);
    }

    #[test]
    fn energy_for_is_linear_in_cycles(mhz in 1u64..2_000, c in 0u64..1_000_000) {
        let f = Frequency::from_mhz(mhz);
        let m = EnergySetting::e2().model(Frequency::from_mhz(2_000));
        let one = m.energy_for(Cycles::new(c), f);
        let twice = m.energy_for(Cycles::new(2 * c), f);
        prop_assert!((twice - 2.0 * one).abs() <= 1e-9 * twice.abs().max(1.0));
    }

    #[test]
    fn frequency_table_lowest_at_least_agrees_with_scan(table in arb_table(), demand in 0.0f64..3_000.0) {
        let scan = table.iter().find(|f| f.as_f64() >= demand);
        prop_assert_eq!(table.lowest_at_least(demand), scan);
    }
}
