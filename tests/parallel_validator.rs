//! Experiment **E-PAR**: parallel full-state validation is byte-identical
//! to the sequential validator.
//!
//! [`validate_with_workers`] partitions the work (per-table structure
//! passes plus per-constraint checks) across scoped threads and merges the
//! per-unit violation buffers in deterministic unit order. The claim is
//! not merely "same verdict" but **byte-identical output**: the same
//! `RelViolation` list, in the same order, as [`validate`] — on valid
//! states, and on states deliberately corrupted in every way the model can
//! be wrong (duplicate keys, dangling FKs, NULLs in NOT NULL columns,
//! frequency overflows, asymmetric view selections, malformed rows).

use proptest::prelude::*;

use ridl_relational::{validate, validate_with_workers, RelSchema, RelState};
use ridl_workloads::scenario;

mod support;
use support::{corrupt, populations};

fn assert_identical(schema: &RelSchema, state: &RelState) -> Result<(), TestCaseError> {
    let seq = validate(schema, state);
    for workers in [1usize, 2, 3, 8] {
        let par = validate_with_workers(schema, state, workers);
        prop_assert_eq!(
            &par,
            &seq,
            "{} workers diverged from sequential ({} violations)",
            workers,
            seq.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On valid populations the parallel validator returns the same (empty)
    /// list for every worker count.
    #[test]
    fn parallel_equals_sequential_on_valid_states(schema_ix in 0usize..4) {
        let (schema, state) = &populations()[schema_ix];
        let seq = validate(schema, state);
        prop_assert!(seq.is_empty(), "population should be valid: {seq:?}");
        assert_identical(schema, state)?;
    }

    /// On corrupted states — where the violation list is long and drawn
    /// from many constraint kinds — the parallel output is byte-identical,
    /// order included, for every worker count.
    #[test]
    fn parallel_equals_sequential_on_corrupted_states(
        schema_ix in 0usize..4,
        seed in 0u64..1u64 << 32,
        corruptions in 1usize..12,
    ) {
        let (schema, state) = &populations()[schema_ix];
        let mut bad = state.clone();
        corrupt(schema, &mut bad, seed, corruptions);
        assert_identical(schema, &bad)?;
    }
}

/// Worker counts beyond the unit count (and the degenerate 1-worker case)
/// are safe: no partition is ever empty-handed into a panic, and output is
/// unchanged.
#[test]
fn extreme_worker_counts_are_safe() {
    let (schema, state) = &populations()[0];
    let mut bad = state.clone();
    corrupt(schema, &mut bad, 3, 6);
    let seq = validate(schema, &bad);
    for workers in [1usize, 64, 1024] {
        assert_eq!(validate_with_workers(schema, &bad, workers), seq);
    }
}

/// The public `validate_parallel` entry point (auto worker count, with its
/// small-state sequential shortcut) also matches on both sides of the
/// size threshold.
#[test]
fn auto_parallel_matches_sequential() {
    // Small: below the threshold, takes the sequential shortcut.
    let (schema, state) = &populations()[1];
    assert_eq!(
        ridl_relational::validate_parallel(schema, state),
        validate(schema, state)
    );
    // Large: a scaled industrial population above the threshold.
    let sc = scenario::industrial_population(11, 2_000);
    assert_eq!(
        ridl_relational::validate_parallel(&sc.schema, &sc.state),
        validate(&sc.schema, &sc.state)
    );
}
