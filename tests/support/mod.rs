//! Shared fixtures for the validator differential suites: cached mapped
//! synthetic populations and a seeded state corrupter.

use std::sync::OnceLock;

use rand::{Rng, SeedableRng};

use ridl_brm::Value;
use ridl_relational::{RelSchema, RelState, Row, TableId};
use ridl_workloads::scenario::{self, MappedPopulation};
use ridl_workloads::synth::GenParams;

/// Pre-built mapped synthetic populations (schema shapes vary per seed).
pub fn populations() -> &'static Vec<(RelSchema, RelState)> {
    static CACHE: OnceLock<Vec<(RelSchema, RelState)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        (0..4u64)
            .map(|seed| {
                let params = GenParams {
                    seed: 71 + seed,
                    nolots: 6,
                    attrs_per_nolot: (1, 3),
                    mn_facts: 4,
                    sublinks: 2,
                    card_prob: 0.5,
                    ..GenParams::default()
                };
                let MappedPopulation { schema, state } = scenario::mapped_population(&params, 5);
                (schema, state)
            })
            .collect()
    })
}

/// Applies `n` random corruptions directly to the state, bypassing all
/// enforcement: cell overwrites (including NULLing NOT NULL columns and
/// retargeting FK values), whole-row deletions (orphaning references and
/// unbalancing view selections), near-duplicate insertions (tripping
/// keys), and arity-mangled rows (tripping the structure pass).
pub fn corrupt(schema: &RelSchema, state: &mut RelState, seed: u64, n: usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let tables: Vec<TableId> = schema.tables().map(|(tid, _)| tid).collect();
    for _ in 0..n {
        let tid = tables[rng.gen_range(0..tables.len())];
        let rows: Vec<Row> = state.rows(tid).iter().cloned().collect();
        if rows.is_empty() {
            continue;
        }
        let victim = rows[rng.gen_range(0..rows.len())].clone();
        match rng.gen_range(0..4u32) {
            0 => {
                // Overwrite one cell with NULL or a foreign value.
                let mut row = victim.clone();
                let c = rng.gen_range(0..row.len());
                row[c] = if rng.gen_bool(0.4) {
                    None
                } else {
                    Some(Value::str(format!("X{}", rng.gen_range(0..1000u32))))
                };
                state.remove(tid, &victim);
                state.insert(tid, row);
            }
            1 => {
                // Delete the row outright.
                state.remove(tid, &victim);
            }
            2 => {
                // Near-duplicate: same row with one cell tweaked, which
                // duplicates any key not covering that cell.
                let mut row = victim.clone();
                let c = rng.gen_range(0..row.len());
                row[c] = Some(Value::str(format!("D{}", rng.gen_range(0..1000u32))));
                state.insert(tid, row);
            }
            _ => {
                // Mangle the arity (structure violation).
                let mut row = victim.clone();
                row.push(Some(Value::str("extra")));
                state.remove(tid, &victim);
                state.insert(tid, row);
            }
        }
    }
}
