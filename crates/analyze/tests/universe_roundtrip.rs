//! Proptest pin: every workload-universe scenario renders to `.scn`
//! text that re-parses **byte-identically** and raises back into an
//! equivalent simulator workload.
//!
//! The chaos campaign (ISSUE 8) leans on this: journal resume and the
//! shrinker both re-derive scenarios from their `(family, cell, seed)`
//! address and compare *rendered text*, so any parse → render drift
//! would break resume byte-identity. This suite swept the generated
//! name space and found the `rest.join(" ")` whitespace collapse the
//! parser used to apply to `scenario`/`task` names; the fix preserves
//! the raw line remainder.

#![allow(missing_docs)]

use eua_analyze::scenario::{EnergySpec, ScenarioSpec};
use eua_platform::{Frequency, FrequencyTable};
use eua_workload::UniverseFamily;
use proptest::prelude::*;

/// `.scn`-safe name characters: no `#` (comment start), no newlines.
const NAME_ALPHABET: [char; 13] = [
    'a', 'b', 'c', 'x', 'y', 'z', '0', '9', ' ', ' ', '.', '_', '-',
];

/// Proptest cases per property.
const CASE_BUDGET: u32 = 32;

// proptest's documented config idiom (`..ProptestConfig::default()`)
// trips needless_update because the struct carries hidden fields.
#[allow(clippy::needless_update)]
fn proptest_config() -> ProptestConfig {
    ProptestConfig {
        cases: CASE_BUDGET,
        ..ProptestConfig::default()
    }
}

proptest! {
    #![proptest_config(proptest_config())]

    #[test]
    fn every_universe_scenario_round_trips_byte_identically(
        family_idx in 0usize..UniverseFamily::ALL.len(),
        cell in 0u32..64,
        seed in 0u64..1_000,
    ) {
        let family = UniverseFamily::ALL[family_idx];
        let f_max = Frequency::from_mhz(100);
        let scenario = family
            .generate(cell, seed, f_max)
            .expect("universe cells are valid by construction");
        let table = FrequencyTable::new([36, 55, 64, 73, 82, 91, 100]).expect("table");
        let spec = ScenarioSpec::from_workload(
            &scenario.name,
            &scenario.workload,
            &table,
            EnergySpec::e1(),
        )
        .expect("universe arrival patterns are .scn-expressible");

        let rendered = spec.render();
        let reparsed = ScenarioSpec::parse(&rendered).expect("canonical text parses");
        prop_assert_eq!(&reparsed, &spec, "parse(render(spec)) must equal spec");
        prop_assert_eq!(
            reparsed.render(),
            rendered.clone(),
            "render must be a fixpoint of parse"
        );

        // And the raised workload drives the same arrival machinery.
        let raised = reparsed.to_workload().expect("raises");
        prop_assert_eq!(&raised.patterns, &scenario.workload.patterns);
        prop_assert_eq!(raised.tasks.len(), scenario.workload.tasks.len());
        for ((_, a), (_, b)) in raised.tasks.iter().zip(scenario.workload.tasks.iter()) {
            prop_assert_eq!(a.name(), b.name());
            prop_assert_eq!(a.allocation(), b.allocation());
            prop_assert_eq!(a.critical_offset(), b.critical_offset());
        }
    }

    #[test]
    fn names_never_drift_through_parse_render(
        // Names drawn from the .scn-safe alphabet, including interior
        // runs of spaces (the historical drift source). The vendored
        // proptest shim has no regex strategies, so build from indices.
        indices in proptest::collection::vec(0usize..NAME_ALPHABET.len(), 1..32),
    ) {
        let raw: String = indices.iter().map(|&i| NAME_ALPHABET[i]).collect();
        // The parser trims each line, so leading/trailing spaces cannot
        // belong to a name; interior runs are the interesting part.
        let name = raw.trim().to_string();
        prop_assume!(!name.is_empty());
        let text = format!(
            "scenario {name}\ntask {name}\n  tuf step 1.0 1000\n  uam 1.0 1000\n  demand det 10.0\n  assurance 1.0 0.5\nend\n"
        );
        let spec = ScenarioSpec::parse(&text).expect("parses");
        prop_assert_eq!(&spec.name, &name);
        prop_assert_eq!(&spec.tasks[0].name, &name);
        let rendered = spec.render();
        let reparsed = ScenarioSpec::parse(&rendered).expect("reparses");
        prop_assert_eq!(&reparsed, &spec);
        prop_assert_eq!(reparsed.render(), rendered);
    }
}
