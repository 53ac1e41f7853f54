//! Statement traffic: the probed mutation targets, the violation set, the
//! seeded plans and the one executor every embedded-engine section runs
//! a plan through (the `oltp` measured section, the `restart` churn and
//! tail, and the crash checks of all four workloads).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ridl_engine::{BatchOp, Database, EngineError, Pred, Query};
use ridl_obs::ConstraintClass;
use ridl_relational::{RelSchema, RelState, Row, TableId};
use ridl_workloads::macrobench::TrafficOp;
use ridl_workloads::sigex;

use crate::stats::Samples;
use crate::trace::{self, timed};

/// A row the engine must reject, and the constraint class it violates.
#[derive(Debug)]
pub struct Violation {
    /// Target table.
    pub table: String,
    /// The violating row.
    pub row: Row,
    /// The class the rejection must report.
    pub class: ConstraintClass,
}

/// A probed row the traffic deletes, re-inserts and reads by primary key.
#[derive(Clone, Debug)]
pub struct Target {
    /// Table the row lives in.
    pub table: String,
    /// Predicates identifying the row by primary key.
    pub preds: Vec<Pred>,
    /// The row itself.
    pub row: Row,
    /// A distinct row with the same primary key; `None` when every column
    /// of the table is part of the key (an m:n fact table).
    pub pk_duplicate: Option<Row>,
}

/// Everything a plan step can address.
pub struct Traffic {
    /// Probed mutation targets.
    pub targets: Vec<Target>,
    /// One primary-key point query per target.
    pub queries: Vec<Query>,
    /// Tips of the pad-free significant examples (key, foreign-key and
    /// structure), verified against the engine during set-up.
    pub tips: Vec<Violation>,
}

impl Traffic {
    /// The violation a `RejectInsert(i)` step issues: target `i`'s
    /// primary-key duplicate for odd `i` (or when there is no tip),
    /// otherwise a significant-example tip. [`build`] admits targets
    /// without a duplicate only when there are tips.
    pub fn violation(&self, i: usize) -> (&str, &Row, ConstraintClass) {
        let t = &self.targets[i];
        match &t.pk_duplicate {
            Some(dup) if i % 2 == 1 || self.tips.is_empty() => {
                (&t.table, dup, ConstraintClass::Key)
            }
            _ => {
                let v = &self.tips[(i / 2) % self.tips.len()];
                (&v.table, &v.row, v.class)
            }
        }
    }
}

/// Whether a statement result is a rejection reporting `class`.
pub fn rejected_as(
    schema: &RelSchema,
    r: &Result<(), EngineError>,
    class: ConstraintClass,
) -> bool {
    match r {
        Err(EngineError::ConstraintViolation(vs)) => vs
            .iter()
            .any(|v| sigex::violation_class(schema, v) == class),
        _ => false,
    }
}

/// Constraint checks per class made by the statements the bench issued
/// while the detail gate was on (so only in traced runs), and how many
/// statements made them.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassCost {
    /// Checks, by [`ConstraintClass::index`].
    pub checks: [u64; 10],
    /// Nanoseconds spent checking, by class index.
    pub nanos: [u64; 10],
    /// Statements issued while the gate was on.
    pub statements: u64,
}

impl ClassCost {
    /// Adds the per-class activity of a counter diff.
    pub fn add(&mut self, diff: &ridl_obs::MetricsSnapshot) {
        for c in ConstraintClass::ALL {
            self.checks[c.index()] += diff.kind(c).checks;
            self.nanos[c.index()] += diff.kind(c).nanos;
        }
    }
}

/// What a sequence of operations did, with one raw latency sample per
/// operation.
#[derive(Default)]
pub struct Tally {
    /// Point-query latencies.
    pub read: Samples,
    /// Write-operation latencies: a delete+reinsert pair (two commits) or
    /// a batch (one commit) each count once, so the median falls inside
    /// one operation kind's distribution rather than between two.
    pub write: Samples,
    /// Violation latencies.
    pub reject: Samples,
    /// Statements issued.
    pub statements: u64,
    /// WAL units the committed statements appended.
    pub units: u64,
    /// Operations (and output checks) attempted.
    pub attempted: u64,
    /// Operations (and output checks) that failed.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// Per-class constraint checks of the statements.
    pub classes: ClassCost,
}

impl Tally {
    /// Counts one attempted operation or check; `ok` false counts it as
    /// failed, describing it with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
        ok
    }

    /// Runs one engine statement inside the span `name`, returning its
    /// result and wall time, and (while the detail gate is on) adding the
    /// constraint checks it made to [`Tally::classes`].
    pub fn statement<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        if !ridl_obs::detail_enabled() {
            return timed(name, f);
        }
        let before = ridl_obs::snapshot();
        let r = timed(name, f);
        self.classes.add(&ridl_obs::snapshot().since(&before));
        self.classes.statements += 1;
        r
    }
}

/// Executes one plan step against the engine, checking its outcome:
/// pairs and batches must change exactly the target row, a point query
/// must return exactly that row, and a violation must be rejected with
/// its expected class.
pub fn execute(db: &mut Database, tr: &Traffic, op: TrafficOp, tally: &mut Tally) {
    match op {
        TrafficOp::DeleteReinsert(i) => {
            let t = &tr.targets[i];
            let (n, del_ns) = tally.statement("bench.engine.delete_where", || {
                db.delete_where(&t.table, &t.preds)
            });
            let (ins, ins_ns) =
                tally.statement("bench.engine.insert", || db.insert(&t.table, t.row.clone()));
            tally.write.push(del_ns + ins_ns);
            tally.statements += 2;
            let ok = n == Ok(1) && ins.is_ok();
            if ok {
                tally.units += 2;
            }
            tally.check(ok, || {
                format!("delete+reinsert on {}: {n:?} then {ins:?}", t.table)
            });
        }
        TrafficOp::Batch(i) => {
            let t = &tr.targets[i];
            let ops = [
                BatchOp::delete(t.table.clone(), t.row.clone()),
                BatchOp::insert(t.table.clone(), t.row.clone()),
            ];
            let (n, ns) = tally.statement("bench.engine.apply_batch", || db.apply_batch(ops));
            tally.write.push(ns);
            tally.statements += 1;
            if n == Ok(2) {
                tally.units += 1;
            }
            tally.check(n == Ok(2), || format!("batch on {}: {n:?}", t.table));
        }
        TrafficOp::RejectInsert(i) => {
            let (table, row, class) = tr.violation(i);
            let (r, ns) = tally.statement("bench.engine.reject", || db.insert(table, row.clone()));
            tally.reject.push(ns);
            tally.statements += 1;
            let ok = rejected_as(db.schema(), &r, class);
            tally.check(ok, || {
                format!(
                    "{} violation on {table} not rejected as such: {r:?}",
                    class.name()
                )
            });
        }
        TrafficOp::PointQuery(i) => {
            let (rows, ns) = tally.statement("bench.engine.select", || db.select(&tr.queries[i]));
            tally.read.push(ns);
            tally.statements += 1;
            let want = &tr.targets[i].row;
            let ok = matches!(&rows, Ok(r) if r.len() == 1 && &r[0] == want);
            tally.check(ok, || {
                format!("point query on {}: {rows:?}", tr.targets[i].table)
            });
        }
    }
}

/// One step of the `serve` traffic, addressing one of the keyed rows.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ServeOp {
    /// A primary-key point query.
    Read(usize),
    /// An update: the row deleted and re-inserted as one batch, so every
    /// committed state equals the loaded one and a concurrent reader
    /// never sees the row missing.
    Update(usize),
}

/// Zipfian ranks over `0..n`: rank `i` is drawn with probability
/// proportional to `1 / (i + 1)^theta`. This is the method of Gray et al.
/// ("Quickly generating billion-record synthetic databases", SIGMOD 1994)
/// that YCSB's generator uses.
struct Zipfian {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    fn new(n: usize, theta: f64) -> Self {
        let zeta = |k: usize| (1..=k).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// The rank for a uniform draw `u` in `[0, 1)`.
    fn rank(&self, u: f64) -> usize {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha);
        (r as usize).min(self.n - 1)
    }
}

/// FNV-1a over the eight bytes of `x`: scatters Zipfian ranks over the
/// key space, as YCSB's scrambled Zipfian generator does.
fn fnv1a(x: u64) -> u64 {
    x.to_le_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The `serve` traffic over `keys` keyed rows, after YCSB's core
/// workload B (Cooper et al., "Benchmarking Cloud Serving Systems with
/// YCSB", SoCC 2010): 95% reads and 5% updates, each on a key drawn from
/// a scrambled Zipfian distribution with θ = 0.99, YCSB's default.
pub fn serve_plan(seed: u64, ops: usize, keys: usize) -> Vec<ServeOp> {
    assert!(keys > 0, "traffic needs at least one key");
    let zipf = Zipfian::new(keys, 0.99);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E12_7E00);
    (0..ops)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let key = (fnv1a(zipf.rank(u) as u64) % keys as u64) as usize;
            if rng.gen_range(0..100u32) < 5 {
                ServeOp::Update(key)
            } else {
                ServeOp::Read(key)
            }
        })
        .collect()
}

/// Every row a primary-key point query can address: the rows, in table
/// and row order, of the tables with a primary key whose key columns are
/// non-null.
pub fn keyed_rows<'a>(schema: &RelSchema, state: &'a RelState) -> Vec<(TableId, &'a Row)> {
    schema
        .tables()
        .filter_map(|(tid, _)| Some((tid, schema.primary_key_of(tid)?)))
        .flat_map(|(tid, pk)| {
            state
                .rows(tid)
                .iter()
                .filter(move |row| pk.iter().all(|c| row[*c as usize].is_some()))
                .map(move |row| (tid, row))
        })
        .collect()
}

/// The predicates that address `row` of `tid` by primary key; `None`
/// when the table has no primary key or a key column is NULL.
pub fn key_preds(schema: &RelSchema, tid: TableId, row: &Row) -> Option<Vec<Pred>> {
    let t = schema.table(tid);
    schema
        .primary_key_of(tid)?
        .iter()
        .map(|c| {
            Some(Pred::Eq(
                t.column(*c).name.clone(),
                row[*c as usize].clone()?,
            ))
        })
        .collect()
}

/// A distinct row with `row`'s primary key: one non-key column moved to
/// a value (or NULL) no row of the table has together with that key.
fn pk_duplicate(
    db: &Database,
    tid: ridl_relational::TableId,
    row: &Row,
    non_key: usize,
) -> Option<Row> {
    let rows = db.state().rows(tid);
    rows.iter()
        .map(|r| r[non_key].clone())
        .chain([None])
        .filter(|v| *v != row[non_key])
        .map(|v| {
            let mut dup = row.clone();
            dup[non_key] = v;
            dup
        })
        .find(|dup| !rows.contains(dup))
}

/// Picks up to `want` mutation targets, at most ⌈want / eligible tables⌉
/// per table (largest tables first), so the traffic spreads across the
/// schema instead of filling from its largest table. Tables whose every
/// column is key (m:n facts, which carry the frequency constraints) are
/// eligible only when `all_key` is set.
///
/// Each candidate row is probed with every statement kind the traffic
/// issues — delete+reinsert, the batch pair, its point query and its
/// primary-key duplicate — and kept only when all behave; the probes
/// leave the state as it was. A probe that half-applies is an error.
pub fn probe_targets(
    db: &mut Database,
    want: usize,
    all_key: bool,
    tally: &mut Tally,
) -> Result<Vec<Target>, String> {
    let schema = db.schema().clone();
    let mut tables: Vec<_> = schema
        .tables()
        .filter_map(|(tid, t)| {
            let pk = schema.primary_key_of(tid)?;
            let non_key = (0..t.arity() as u32).find(|c| !pk.contains(c));
            let n = db.state().rows(tid).len();
            (n >= 2 && (all_key || non_key.is_some())).then_some((tid, non_key, n))
        })
        .collect();
    tables.sort_by_key(|&(tid, .., n)| (std::cmp::Reverse(n), tid.index()));
    let cap = want.div_ceil(tables.len().max(1));
    let mut out = Vec::new();
    for (tid, non_key, _) in tables {
        let t = schema.table(tid);
        let rows: Vec<Row> = db.state().rows(tid).iter().cloned().collect();
        let mut taken = 0;
        for row in rows.iter().take(4 * cap) {
            if taken == cap || out.len() == want {
                break;
            }
            let Some(preds) = key_preds(&schema, tid, row) else {
                continue;
            };
            let pk_dup = match non_key {
                Some(c) => match pk_duplicate(db, tid, row, c as usize) {
                    Some(dup) => Some(dup),
                    None => continue,
                },
                None => None,
            };
            let target = Target {
                table: t.name.clone(),
                preds,
                row: row.clone(),
                pk_duplicate: pk_dup,
            };
            if probe(db, &target, tally)? {
                out.push(target);
                taken += 1;
            }
        }
    }
    Ok(out)
}

/// Runs each statement kind once against `t`; `Ok(false)` when the row
/// is not a usable target (its delete is refused, say).
fn probe(db: &mut Database, t: &Target, tally: &mut Tally) -> Result<bool, String> {
    let (n, _) = tally.statement("bench.engine.delete_where", || {
        db.delete_where(&t.table, &t.preds)
    });
    if n != Ok(1) {
        return Ok(false);
    }
    let (ins, _) = tally.statement("bench.engine.insert", || db.insert(&t.table, t.row.clone()));
    ins.map_err(|e| {
        format!(
            "probe could not re-insert a deleted row of {}: {e}",
            t.table
        )
    })?;
    let ops = [
        BatchOp::delete(t.table.clone(), t.row.clone()),
        BatchOp::insert(t.table.clone(), t.row.clone()),
    ];
    let (batch, _) = tally.statement("bench.engine.apply_batch", || db.apply_batch(ops));
    let (rows, _) = tally.statement("bench.engine.select", || db.select(&point_query(t)));
    let rejected = match &t.pk_duplicate {
        Some(dup) => {
            let (rej, _) =
                tally.statement("bench.engine.reject", || db.insert(&t.table, dup.clone()));
            rejected_as(db.schema(), &rej, ConstraintClass::Key)
        }
        None => true,
    };
    Ok(batch == Ok(2) && matches!(&rows, Ok(r) if r.len() == 1 && r[0] == t.row) && rejected)
}

/// The primary-key point query that reads `t`'s row.
fn point_query(t: &Target) -> Query {
    let mut q = Query::from(t.table.as_str());
    q.filter = t.preds.clone();
    q
}

/// Builds the traffic over a loaded database: the verified tips of the
/// pad-free significant examples, then the probed targets and their point
/// queries. A tip the engine accepts is a failed check (and is left out).
pub fn build(db: &mut Database, want: usize, tally: &mut Tally) -> Result<Traffic, String> {
    let schema = db.schema().clone();
    let examples = trace::call("bench.workloads.sigex", || {
        sigex::significant_examples(&schema, db.state())
    });
    let mut tips = Vec::new();
    for ex in examples.into_iter().filter(|ex| ex.pads.is_empty()) {
        let v = Violation {
            table: schema.table(ex.tip.0).name.clone(),
            row: ex.tip.1,
            class: ex.class,
        };
        let (r, _) = tally.statement("bench.engine.reject", || db.insert(&v.table, v.row.clone()));
        if tally.check(rejected_as(&schema, &r, v.class), || {
            format!(
                "significant example {} ({}) accepted: {r:?}",
                ex.constraint,
                v.class.name()
            )
        }) {
            tips.push(v);
        }
    }
    let targets = probe_targets(db, want, !tips.is_empty(), tally)?;
    if targets.is_empty() {
        return Err("no probe-able mutation target in the mapped schema".into());
    }
    let queries = targets.iter().map(point_query).collect();
    Ok(Traffic {
        targets,
        queries,
        tips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_ranks_follow_the_distribution() {
        let n = 1000;
        let z = Zipfian::new(n, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let draws = 200_000;
        let mut count = vec![0u32; n];
        for _ in 0..draws {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            count[z.rank(u)] += 1;
        }
        // Rank i carries (i + 1)^-θ / ζ(n); allow 5% relative error.
        for i in [0, 1, 9, 99] {
            let want = draws as f64 * ((i + 1) as f64).powf(-0.99) / z.zetan;
            let got = f64::from(count[i]);
            assert!(
                (got - want).abs() < 0.05 * want,
                "rank {i}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn serve_plan_is_deterministic_read_mostly_and_in_range() {
        let keys = 5000;
        let a = serve_plan(3, 20_000, keys);
        assert_eq!(a, serve_plan(3, 20_000, keys));
        assert_ne!(a, serve_plan(4, 20_000, keys));
        let updates = a
            .iter()
            .filter(|op| matches!(op, ServeOp::Update(_)))
            .count();
        assert!((800..1200).contains(&updates), "{updates} updates in 20000");
        assert!(a
            .iter()
            .all(|op| matches!(op, ServeOp::Read(k) | ServeOp::Update(k) if *k < keys)));
    }
}
