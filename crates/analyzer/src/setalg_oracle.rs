//! The reference saturation: dense `bool` matrices grown node by node, a
//! fixpoint that reruns every rule each round, and an implied-constraint
//! check that rebuilds the schema per candidate. It is slow (cubic closure,
//! quartic disjointness) but plainly follows the rules, so the bit-row
//! saturation is checked against it node pair by node pair.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ridl_brm::{
    Constraint, ConstraintKind, ObjectTypeId, RoleOrSublink, RoleRef, Schema, Side, SublinkId,
};
use ridl_workloads::synth::{self, GenParams};

use super::{Base, Node};
use crate::report::Finding;

struct DenseSetAlgebra {
    nodes: Vec<Node>,
    index: HashMap<Node, usize>,
    subset: Vec<Vec<bool>>,
    disjoint: Vec<Vec<bool>>,
    empty: Vec<bool>,
    covers: Vec<(usize, Vec<usize>)>,
}

impl DenseSetAlgebra {
    fn node(&mut self, n: Node) -> usize {
        if let Some(&i) = self.index.get(&n) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(n);
        self.index.insert(n, i);
        for row in &mut self.subset {
            row.push(false);
        }
        for row in &mut self.disjoint {
            row.push(false);
        }
        self.subset.push(vec![false; i + 1]);
        self.disjoint.push(vec![false; i + 1]);
        self.subset[i][i] = true;
        self.empty.push(false);
        i
    }

    fn from_schema(schema: &Schema) -> Self {
        let mut sa = DenseSetAlgebra {
            nodes: Vec::new(),
            index: HashMap::new(),
            subset: Vec::new(),
            disjoint: Vec::new(),
            empty: Vec::new(),
            covers: Vec::new(),
        };
        for (fid, ft) in schema.fact_types() {
            for side in Side::BOTH {
                let r = sa.node(Node::Role(fid.raw(), side));
                let p = sa.node(Node::Ot(ft.player(side).raw()));
                sa.subset[r][p] = true;
            }
        }
        for (_, sl) in schema.sublinks() {
            let sub = sa.node(Node::Ot(sl.sub.raw()));
            let sup = sa.node(Node::Ot(sl.sup.raw()));
            sa.subset[sub][sup] = true;
        }
        for (_, c) in schema.constraints() {
            match &c.kind {
                ConstraintKind::Total { over, items } => {
                    let o = sa.node(Node::Ot(over.raw()));
                    let is: Vec<usize> = items
                        .iter()
                        .map(|i| sa.node(Node::item(schema, i)))
                        .collect();
                    if is.len() == 1 {
                        sa.subset[o][is[0]] = true;
                    }
                    sa.covers.push((o, is));
                }
                ConstraintKind::Exclusion { items } => {
                    let is: Vec<usize> = items
                        .iter()
                        .map(|i| sa.node(Node::item(schema, i)))
                        .collect();
                    for x in 0..is.len() {
                        for y in (x + 1)..is.len() {
                            sa.disjoint[is[x]][is[y]] = true;
                            sa.disjoint[is[y]][is[x]] = true;
                        }
                    }
                }
                ConstraintKind::Subset { sub, sup } if sub.len() == 1 && sup.len() == 1 => {
                    let a = sa.node(Node::role(&sub[0]));
                    let b = sa.node(Node::role(&sup[0]));
                    sa.subset[a][b] = true;
                }
                ConstraintKind::Equality { a, b } if a.len() == 1 && b.len() == 1 => {
                    let x = sa.node(Node::role(&a[0]));
                    let y = sa.node(Node::role(&b[0]));
                    sa.subset[x][y] = true;
                    sa.subset[y][x] = true;
                }
                _ => {}
            }
        }
        sa.saturate();
        sa
    }

    fn saturate(&mut self) {
        let n = self.nodes.len();
        let mut changed = true;
        while changed {
            changed = false;
            // Rule 2.
            for k in 0..n {
                for i in 0..n {
                    if self.subset[i][k] {
                        for j in 0..n {
                            if self.subset[k][j] && !self.subset[i][j] {
                                self.subset[i][j] = true;
                                changed = true;
                            }
                        }
                    }
                }
            }
            // Rule 3.
            for a in 0..n {
                for b in 0..n {
                    if !self.disjoint[a][b] {
                        continue;
                    }
                    for x in 0..n {
                        if !self.subset[x][a] {
                            continue;
                        }
                        for y in 0..n {
                            if self.subset[y][b] && !self.disjoint[x][y] {
                                self.disjoint[x][y] = true;
                                self.disjoint[y][x] = true;
                                changed = true;
                            }
                        }
                    }
                }
            }
            // Rule 4.
            for x in 0..n {
                if self.disjoint[x][x] && !self.empty[x] {
                    self.empty[x] = true;
                    changed = true;
                }
            }
            // Rule 5.
            for x in 0..n {
                if self.empty[x] {
                    continue;
                }
                for y in 0..n {
                    if self.subset[x][y] && self.empty[y] {
                        self.empty[x] = true;
                        changed = true;
                        break;
                    }
                }
            }
            // Rule 6.
            for (o, items) in &self.covers {
                if self.empty[*o] {
                    continue;
                }
                if items.iter().all(|&i| self.empty[i] || self.disjoint[*o][i]) {
                    self.empty[*o] = true;
                    changed = true;
                }
            }
        }
    }

    fn node_empty(&self, n: Node) -> bool {
        self.index.get(&n).is_some_and(|&i| self.empty[i])
    }
}

fn dense_check(schema: &Schema) -> Vec<Finding> {
    let sa = DenseSetAlgebra::from_schema(schema);
    let mut out = Vec::new();
    for (oid, ot) in schema.object_types() {
        if sa.node_empty(Node::Ot(oid.raw())) {
            out.push(Finding::error(
                "FORCED-EMPTY-OT",
                format!(
                    "the set-algebraic constraints force the population of {} to be empty",
                    ot.name
                ),
            ));
        }
    }
    for (fid, ft) in schema.fact_types() {
        for side in Side::BOTH {
            let r = RoleRef::new(fid, side);
            let player = schema.role_player(r);
            if sa.node_empty(Node::role(&r)) && !sa.node_empty(Node::Ot(player.raw())) {
                out.push(Finding::warning(
                    "FORCED-EMPTY-ROLE",
                    format!("role {} of fact {} can never be populated", side, ft.name),
                ));
            }
        }
    }
    out
}

fn dense_implied(schema: &Schema) -> Vec<Finding> {
    let mut out = Vec::new();
    for (cid, c) in schema.constraints() {
        let target = match &c.kind {
            ConstraintKind::Subset { sub, sup } if sub.len() == 1 && sup.len() == 1 => {
                Some((Node::role(&sub[0]), Node::role(&sup[0]), false))
            }
            ConstraintKind::Exclusion { items } if items.len() == 2 => Some((
                Node::item(schema, &items[0]),
                Node::item(schema, &items[1]),
                true,
            )),
            _ => None,
        };
        let Some((a, b, disjoint)) = target else {
            continue;
        };
        let mut reduced = Schema::new(schema.name.clone());
        for (_, o) in schema.object_types() {
            reduced.push_object_type(o.clone());
        }
        for (_, f) in schema.fact_types() {
            reduced.push_fact_type(f.clone());
        }
        for (_, sl) in schema.sublinks() {
            reduced.push_sublink(*sl);
        }
        for (other_id, other) in schema.constraints() {
            if other_id != cid {
                reduced.push_constraint(other.clone());
            }
        }
        let sa = DenseSetAlgebra::from_schema(&reduced);
        let (Some(&ia), Some(&ib)) = (sa.index.get(&a), sa.index.get(&b)) else {
            continue;
        };
        let implied = if disjoint {
            sa.disjoint[ia][ib]
        } else {
            sa.subset[ia][ib]
        };
        if implied {
            out.push(Finding::info(
                "IMPLIED-CONSTRAINT",
                format!(
                    "{} {cid} is implied by the rest of the schema (superfluous definition)",
                    c.kind.keyword()
                ),
            ));
        }
    }
    out
}

/// A synthetic schema plus `extra` random set-algebraic constraints, most
/// of them well-typed (a total role over its own player, an exclusion of
/// roles or subtypes), so that contradictions and forced-empty
/// populations actually arise.
fn injected(mut params: GenParams, extra: usize) -> Schema {
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x005e_7a19);
    params.exclusion_prob = rng.gen_range(0..=10) as f64 / 10.0;
    params.subset_prob = rng.gen_range(0..=10) as f64 / 10.0;
    params.total_prob = rng.gen_range(0..=10) as f64 / 10.0;
    let mut s = synth::generate(&params).schema;
    let facts = s.num_fact_types() as u32;
    let sublinks = s.num_sublinks() as u32;
    let role = |rng: &mut StdRng| {
        let side = if rng.gen_bool(0.5) {
            Side::Left
        } else {
            Side::Right
        };
        RoleRef::new(
            ridl_brm::FactTypeId::from_raw(rng.gen_range(0..facts)),
            side,
        )
    };
    let item = |rng: &mut StdRng| {
        if sublinks > 0 && rng.gen_bool(0.3) {
            RoleOrSublink::Sublink(SublinkId::from_raw(rng.gen_range(0..sublinks)))
        } else {
            RoleOrSublink::Role(role(rng))
        }
    };
    for _ in 0..extra {
        let kind = match rng.gen_range(0..5u32) {
            0 => ConstraintKind::Exclusion {
                items: (0..rng.gen_range(2..4usize))
                    .map(|_| item(&mut rng))
                    .collect(),
            },
            1 => ConstraintKind::Equality {
                a: vec![role(&mut rng)],
                b: vec![role(&mut rng)],
            },
            2 => ConstraintKind::Subset {
                sub: vec![role(&mut rng)],
                sup: vec![role(&mut rng)],
            },
            3 => {
                let r = role(&mut rng);
                ConstraintKind::Total {
                    over: s.role_player(r),
                    items: vec![RoleOrSublink::Role(r)],
                }
            }
            _ => ConstraintKind::Total {
                over: ObjectTypeId::from_raw(rng.gen_range(0..s.num_object_types() as u32)),
                items: (0..rng.gen_range(1..3usize))
                    .map(|_| item(&mut rng))
                    .collect(),
            },
        };
        s.push_constraint(Constraint::new(kind));
    }
    s
}

/// Asserts that the bit-row saturation derives exactly the dense one's
/// relations; returns how many nodes are forced empty.
fn assert_same_lattice(s: &Schema) -> Result<usize, TestCaseError> {
    let dense = DenseSetAlgebra::from_schema(s);
    let base = Base::collect(s);
    let lattice = base.saturate(None);
    prop_assert_eq!(dense.index.len(), base.index.len());
    let mut empties = 0;
    for (n1, &i1) in &base.index {
        let d1 = dense.index[n1];
        prop_assert_eq!(dense.empty[d1], super::has(&lattice.empty, i1), "{:?}", n1);
        empties += usize::from(dense.empty[d1]);
        for (n2, &i2) in &base.index {
            let d2 = dense.index[n2];
            prop_assert_eq!(
                dense.subset[d1][d2],
                lattice.subset.get(i1, i2),
                "{:?} ⊆ {:?}",
                n1,
                n2
            );
            prop_assert_eq!(
                dense.disjoint[d1][d2],
                lattice.disjoint.get(i1, i2),
                "{:?} ∩ {:?}",
                n1,
                n2
            );
        }
    }
    prop_assert_eq!(super::check(s), dense_check(s));
    Ok(empties)
}

fn small_params(seed: u64) -> GenParams {
    let mut rng = StdRng::seed_from_u64(seed);
    let nolots = rng.gen_range(2..30usize);
    GenParams {
        seed,
        nolots,
        attrs_per_nolot: (0, rng.gen_range(1..4usize)),
        mn_facts: rng.gen_range(0..nolots),
        sublinks: rng.gen_range(0..nolots / 2 + 1),
        ..GenParams::default()
    }
}

proptest! {
    /// Small and mid-sized schemas: identical relations, `check` and
    /// `implied_constraints` findings.
    #[test]
    fn saturation_matches_the_dense_oracle(seed in any::<u64>(), extra in 0usize..12) {
        let s = injected(small_params(seed), extra);
        assert_same_lattice(&s)?;
        prop_assert_eq!(super::implied_constraints(&s), dense_implied(&s));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The industrial band (about 1,900 nodes): identical relations and
    /// `check` findings. The dense `implied_constraints` takes minutes per
    /// schema here, so its agreement is left to the sizes above.
    #[test]
    fn industrial_saturation_matches_the_dense_oracle(seed in any::<u64>(), extra in 0usize..40) {
        let s = injected(GenParams::industrial(seed), extra);
        assert_same_lattice(&s)?;
    }
}

/// The injection does reach forced-empty populations; without this the
/// oracle could pass on lattices where rules 4–6 never fire.
#[test]
fn injected_schemas_force_empty_populations() {
    let forced = (0..40u64)
        .map(|seed| {
            let s = injected(small_params(seed), 10);
            assert_same_lattice(&s).unwrap()
        })
        .filter(|&n| n > 0)
        .count();
    assert!(
        forced >= 10,
        "only {forced} of 40 schemas force an empty population"
    );
}
