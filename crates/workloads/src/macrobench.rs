//! RIDL-Bench macro workload: the full-pipeline scenario behind the
//! `ridlbench/` benchmark's `oltp` and `restart` workloads.
//!
//! The micro benches each exercise one subsystem; this module describes
//! the *end-to-end* run — synthesize an industrial-band BRM schema,
//! analyze and map it through RIDL-M, generate a calibrated population,
//! and drive mixed closed-loop traffic against the loaded engine. The
//! module itself stays engine-free (so `ridl-workloads` keeps its thin
//! dependency cone): it produces the schema, the state, and a
//! deterministic *traffic plan*; the benchmark translates plan steps
//! into engine statements and times them.
//!
//! Everything here is deterministic in the seed: equal [`MacroParams`]
//! give byte-equal schemas, states and traffic plans (the determinism
//! regression suite asserts this, across thread counts too).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ridl_core::{MappingOptions, MappingOutput, Workbench};
use ridl_relational::RelState;

use crate::scenario;
use crate::synth::{self, GenParams, SynthSchema};

/// Parameters of the macro workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MacroParams {
    /// Seed for schema synthesis, population and traffic planning.
    pub seed: u64,
    /// Approximate row count of the loaded population.
    pub target_rows: usize,
}

impl Default for MacroParams {
    fn default() -> Self {
        Self {
            seed: 1989,
            target_rows: 100_000,
        }
    }
}

/// Phase 1 — synthesize the industrial-band BRM schema (120–150 mapped
/// tables at the default parameters).
pub fn synthesize(p: &MacroParams) -> SynthSchema {
    synth::generate(&GenParams::industrial(p.seed))
}

/// Phase 2 — run RIDL-A analysis and the RIDL-M mapping, yielding the
/// relational schema (with its full generated constraint set), the
/// transformation trace and the state maps.
pub fn analyze_and_map(s: &SynthSchema) -> MappingOutput {
    let wb = Workbench::new(s.schema.clone());
    assert!(
        wb.analysis().is_mappable(),
        "industrial synthetic schema must be mappable"
    );
    wb.map(&MappingOptions::new())
        .expect("industrial schema maps")
}

/// Phase 3 — generate the calibrated population: probe for rows-per-
/// instance, then scale the instance count to roughly `target_rows` rows
/// (the same calibration [`scenario::industrial_population`] uses).
pub fn populate(s: &SynthSchema, out: &MappingOutput, p: &MacroParams) -> RelState {
    let instances = scenario::calibrate_instances(s, out, p.target_rows);
    scenario::populate_instances(s, out, instances)
}

/// One step of the mixed closed-loop traffic plan. The index selects one
/// of the driver's probed mutation targets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrafficOp {
    /// Delete the target row by primary key, then re-insert it — two
    /// committed statements through the delta-validation path.
    DeleteReinsert(usize),
    /// The same pair as one all-or-nothing `apply_batch` group (nets to
    /// zero, exercising batch netting and group commit).
    Batch(usize),
    /// Insert a row duplicating the target's primary key — the engine
    /// must reject it and roll back (validate + undo cost).
    RejectInsert(usize),
    /// A point query on the target row's primary key through the query
    /// executor.
    PointQuery(usize),
}

/// Builds the deterministic mixed traffic plan: `ops` steps over
/// `targets` probed mutation targets, roughly 40% delete+reinsert pairs,
/// 20% batches, 10% rejected inserts and 30% point queries.
pub fn plan_traffic(seed: u64, ops: usize, targets: usize) -> Vec<TrafficOp> {
    assert!(targets > 0, "traffic needs at least one mutation target");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51D1_BE9C);
    (0..ops)
        .map(|_| {
            let t = rng.gen_range(0..targets);
            match rng.gen_range(0..10u32) {
                0..=3 => TrafficOp::DeleteReinsert(t),
                4..=5 => TrafficOp::Batch(t),
                6 => TrafficOp::RejectInsert(t),
                _ => TrafficOp::PointQuery(t),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ridl_relational::validate;

    #[test]
    fn macro_pipeline_stages_compose() {
        let p = MacroParams {
            seed: 1989,
            target_rows: 600,
        };
        let s = synthesize(&p);
        let out = analyze_and_map(&s);
        let state = populate(&s, &out, &p);
        assert!(validate(&out.rel, &state).is_empty(), "population is clean");
        assert!(state.num_rows() >= 300, "calibration reached the target");
    }

    #[test]
    fn traffic_plan_is_deterministic_and_mixed() {
        let a = plan_traffic(7, 500, 4);
        let b = plan_traffic(7, 500, 4);
        assert_eq!(a, b);
        assert!(a.iter().any(|o| matches!(o, TrafficOp::DeleteReinsert(_))));
        assert!(a.iter().any(|o| matches!(o, TrafficOp::Batch(_))));
        assert!(a.iter().any(|o| matches!(o, TrafficOp::PointQuery(_))));
        assert!(plan_traffic(8, 500, 4) != a, "seed changes the plan");
    }
}
