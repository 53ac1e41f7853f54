//! The aggregate verdict agrees with the full validator.
//!
//! `bulk_load`, `load_state` and recovery's checkpoint install all decide
//! a whole state's validity with [`validate_load`]: build the
//! [`ConstraintIndexes`] once, then check every constraint in aggregate
//! over their counters. This suite checks that verdict against the full
//! validator [`validate`] on the CRIS case study and on mapped synthetic
//! populations, valid and deliberately corrupted: both must agree on
//! emptiness and on the set of violated constraint names.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use proptest::prelude::*;

use ridl_core::state_map::map_population;
use ridl_core::{MappingOptions, Workbench};
use ridl_relational::{validate, validate_load, ConstraintIndexes, RelSchema, RelState};
use ridl_workloads::cris;

mod support;
use support::{corrupt, populations};

fn cris_artifacts() -> &'static (RelSchema, RelState) {
    static CACHE: OnceLock<(RelSchema, RelState)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let schema = cris::schema();
        let pop = cris::population(&schema);
        let wb = Workbench::new(schema);
        let out = wb.map(&MappingOptions::new()).expect("CRIS maps");
        let st = map_population(&out.schema, &out, &pop).expect("state map");
        (out.rel, st)
    })
}

/// Scenario 0 is CRIS; 1..=4 are the synthetic populations.
fn scenario(ix: usize) -> &'static (RelSchema, RelState) {
    if ix == 0 {
        cris_artifacts()
    } else {
        &populations()[ix - 1]
    }
}

fn violated(violations: &[ridl_relational::RelViolation]) -> BTreeSet<&str> {
    violations.iter().map(|v| v.constraint.as_str()).collect()
}

fn assert_agree(schema: &RelSchema, state: &RelState) -> Result<(), TestCaseError> {
    let full = validate(schema, state);
    let load = validate_load(schema, state, &ConstraintIndexes::build(schema, state));
    prop_assert_eq!(
        full.is_empty(),
        load.is_empty(),
        "verdicts differ: full {:?} vs aggregate {:?}",
        full,
        load
    );
    prop_assert_eq!(
        violated(&full),
        violated(&load),
        "violated constraints differ: full {:?} vs aggregate {:?}",
        full,
        load
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid populations: both verdicts are empty.
    #[test]
    fn aggregate_verdict_agrees_on_valid_states(ix in 0usize..5) {
        let (schema, state) = scenario(ix);
        prop_assert!(validate(schema, state).is_empty(), "population should be valid");
        assert_agree(schema, state)?;
    }

    /// Corrupted populations: same emptiness, same violated constraints.
    #[test]
    fn aggregate_verdict_agrees_on_corrupted_states(
        ix in 0usize..5,
        seed in 0u64..1u64 << 32,
        corruptions in 1usize..12,
    ) {
        let (schema, state) = scenario(ix);
        let mut bad = state.clone();
        corrupt(schema, &mut bad, seed, corruptions);
        assert_agree(schema, &bad)?;
    }
}
