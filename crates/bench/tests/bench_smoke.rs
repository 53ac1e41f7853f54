//! Bench-rot smoke tests: one `#[test]` per criterion bench, running the
//! bench's setup plus one measured iteration at tiny scale.
//!
//! The criterion harnesses only compile under `cargo bench`, so a bench
//! whose setup assumptions rot (a renamed table, a probe that no longer
//! finds a target, a schema that stops being mappable) would fail at
//! bench time, long after the offending change merged. Each test here
//! exercises the same public entry points the corresponding bench uses —
//! the three migrated engine benches call the exact shared-harness
//! functions — so `cargo test --workspace` catches the rot.

use std::sync::Arc;

use ridl_bench::harness::{
    bench_dir, build_db, build_load_scenario, commit_pair, durability, pick_mutation_target,
};
use ridl_engine::{Database, FsyncPolicy, StdIo, ValidationMode};
use ridl_workloads::synth::{self, GenParams};

/// Small synthetic schema parameters shared by the mapper-side smokes.
fn small(seed: u64) -> GenParams {
    GenParams {
        seed,
        nolots: 10,
        sublinks: 2,
        mn_facts: 5,
        ..GenParams::default()
    }
}

// -- engine_mutation: harness setup + one of each measured statement --
#[test]
fn engine_mutation_smoke() {
    let mut db = build_db(300);
    let t = pick_mutation_target(&mut db);
    for mode in [ValidationMode::FullState, ValidationMode::Incremental] {
        db.set_validation_mode(mode);
        assert!(db.insert(&t.table, t.reject_row.clone()).is_err());
        assert_eq!(
            db.update_where(&t.table, &t.preds, &[(&t.assign_col, t.assign_val.clone())])
                .unwrap(),
            1
        );
        commit_pair(&mut db, &t);
    }
}

// -- bulk_load: scenario build + all three measured load paths --
#[test]
fn bulk_load_smoke() {
    let sc = build_load_scenario(300);
    let rows = sc.state.num_rows();
    assert!(ridl_relational::validate(&sc.schema, &sc.state).is_empty());
    assert!(ridl_relational::validate_with_workers(&sc.schema, &sc.state, 2).is_empty());
    let mut db = Database::create(sc.schema.clone()).unwrap();
    assert_eq!(db.bulk_load(sc.rows.iter().cloned()).unwrap(), rows);
}

// -- durable_commit: WAL-backed commit pair + replay-count accounting --
#[test]
fn durable_commit_smoke() {
    let sc = build_load_scenario(300);
    let dir = bench_dir("smoke-durable");
    let mut db = Database::open_with(
        Arc::new(StdIo),
        &dir,
        sc.schema.clone(),
        durability(FsyncPolicy::Never),
    )
    .unwrap();
    db.bulk_load(sc.rows.iter().cloned()).unwrap();
    let t = pick_mutation_target(&mut db); // probe commits 2 units
    commit_pair(&mut db, &t); // +2
    db.flush_wal().unwrap();
    drop(db);
    let db = Database::open_with(
        Arc::new(StdIo),
        &dir,
        sc.schema.clone(),
        durability(FsyncPolicy::Never),
    )
    .unwrap();
    let rep = db.recovery_report().expect("durable open reports");
    assert_eq!(rep.units_replayed, 4);
    assert_eq!(rep.bytes_discarded, 0);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// -- fig4_sublink: eliminate one sublink, state round trip --
#[test]
fn fig4_sublink_smoke() {
    use ridl_brm::population::is_model;
    use ridl_transform::EliminateSublink;
    use ridl_workloads::popgen::{self, PopParams};
    let s = synth::generate(&GenParams {
        seed: 1,
        sublinks: 2,
        ..small(1)
    });
    assert!(s.schema.num_sublinks() > 0);
    let pop = popgen::generate(&s.schema, &PopParams::default());
    assert!(is_model(&s.schema, &pop));
    let t = EliminateSublink {
        sublink: ridl_brm::SublinkId::from_raw(0),
    };
    let out = t.apply(&s.schema).unwrap();
    let mapped = t.map_state(&s.schema, &out, &pop);
    assert!(is_model(&out.schema, &mapped));
    let back = t.unmap_state(&out, &mapped);
    assert_eq!(back.compacted(), pop.compacted());
}

// -- fig6_alternatives: the figure's schema maps under option sets --
#[test]
fn fig6_alternatives_smoke() {
    use ridl_core::{MappingOptions, SublinkOption, Workbench};
    let wb = Workbench::new(ridl_workloads::fig6::schema());
    assert!(wb.analysis().is_mappable());
    let a1 = wb.map(&MappingOptions::new()).unwrap();
    let a4 = wb
        .map(&MappingOptions::new().with_sublinks(SublinkOption::Together))
        .unwrap();
    assert!(a1.table_count() >= a4.table_count());
}

// -- nf_sweep: dependency extraction + normal-form classification --
#[test]
fn nf_sweep_smoke() {
    use ridl_core::{MappingOptions, Workbench};
    use ridl_relational::normal_form_of;
    let s = synth::generate(&small(0));
    let wb = Workbench::new(s.schema);
    assert!(wb.analysis().is_mappable());
    let out = wb.map(&MappingOptions::new()).unwrap();
    let mut classified = 0usize;
    for (_, deps) in out.table_dependencies() {
        let _ = normal_form_of(&deps);
        classified += 1;
    }
    assert_eq!(classified, out.table_count());
}

// -- industrial_scale: map + DDL generation and page estimate --
#[test]
fn industrial_scale_smoke() {
    use ridl_core::{MappingOptions, Workbench};
    use ridl_sqlgen::{generate_for, DialectKind};
    let s = synth::generate(&small(1989));
    let wb = Workbench::new(s.schema);
    assert!(wb.analysis().is_mappable());
    let out = wb.map(&MappingOptions::new()).unwrap();
    let ddl = generate_for(&out.rel, DialectKind::Oracle);
    assert!(ddl.total_lines() > 0);
    assert!(ddl.pages_per_table(50) > 0.0);
}

// -- null_option_sweep: the strict option admits no nullable column --
#[test]
fn null_option_sweep_smoke() {
    use ridl_core::{MappingOptions, NullOption, Workbench};
    let s = synth::generate(&small(0));
    let wb = Workbench::new(s.schema);
    let strict = wb
        .map(&MappingOptions::new().with_nulls(NullOption::NullNotAllowed))
        .unwrap();
    assert_eq!(strict.nullable_column_count(), 0);
    let lax = wb
        .map(&MappingOptions::new().with_nulls(NullOption::NullAllowed))
        .unwrap();
    assert!(lax.table_count() <= strict.table_count());
}

// -- sublink_option_sweep: every sublink option maps --
#[test]
fn sublink_option_sweep_smoke() {
    use ridl_core::{MappingOptions, SublinkOption, Workbench};
    let s = synth::generate(&GenParams {
        seed: 3,
        sublinks: 3,
        ..small(3)
    });
    let wb = Workbench::new(s.schema);
    assert!(wb.analysis().is_mappable());
    for opt in [
        SublinkOption::Separate,
        SublinkOption::Together,
        SublinkOption::IndicatorForSupot,
    ] {
        let out = wb.map(&MappingOptions::new().with_sublinks(opt)).unwrap();
        assert!(out.table_count() > 0);
    }
}

// -- analyzer_throughput: analysis over a generated schema --
#[test]
fn analyzer_throughput_smoke() {
    use ridl_analyzer::analyze;
    let s = synth::generate(&GenParams {
        seed: 11,
        nolots: 10,
        sublinks: 2,
        mn_facts: 5,
        ..GenParams::default()
    });
    let r = analyze(&s.schema);
    assert!(r.is_mappable());
}

// -- roundtrip: forwards map, backwards map, equivalence --
#[test]
fn roundtrip_smoke() {
    use ridl_core::state_map::{equivalent, map_population, unmap_state};
    use ridl_core::{MappingOptions, Workbench};
    use ridl_workloads::popgen::{self, PopParams};
    let s = synth::generate(&GenParams::default());
    let wb = Workbench::new(s.schema);
    let out = wb.map(&MappingOptions::new()).unwrap();
    let pop = popgen::generate(
        &out.schema,
        &PopParams {
            instances_per_entity: 4,
            ..PopParams::default()
        },
    );
    let st = map_population(&out.schema, &out, &pop).unwrap();
    let back = unmap_state(&out.schema, &out, &st).unwrap();
    assert!(equivalent(&out.schema, &out, &pop, &back).unwrap());
}

// -- mapper_throughput: map a generated schema, trace non-empty --
#[test]
fn mapper_throughput_smoke() {
    use ridl_core::{MappingOptions, Workbench};
    let s = synth::generate(&GenParams {
        seed: 23,
        nolots: 10,
        sublinks: 2,
        mn_facts: 5,
        ..GenParams::default()
    });
    let wb = Workbench::new(s.schema.clone());
    let out = wb.map(&MappingOptions::new()).unwrap();
    assert!(out.table_count() > 0);
    assert!(!out.trace.steps().is_empty());
}

// -- denorm_ablation: combine directive removes a dynamic join while
//    both plans return identical answers --
#[test]
fn denorm_ablation_smoke() {
    use ridl_brm::builder::{identify, SchemaBuilder};
    use ridl_brm::{DataType, Side};
    use ridl_core::options::CombineDirective;
    use ridl_core::state_map::map_population;
    use ridl_core::{MappingOptions, Workbench};
    use ridl_query::{compile, ConceptualQuery};
    use ridl_workloads::popgen::{self, PopParams};

    let mut b = SchemaBuilder::new("smoke_chain");
    b.nolot("Order").unwrap();
    identify(&mut b, "Order", "Order_No", DataType::Char(8)).unwrap();
    b.nolot("Customer").unwrap();
    identify(&mut b, "Customer", "Customer_No", DataType::Char(8)).unwrap();
    b.lot("Region", DataType::Char(12)).unwrap();
    b.fact(
        "cust_region",
        ("based_in", "Customer"),
        ("region_of", "Region"),
    )
    .unwrap();
    b.unique("cust_region", Side::Left).unwrap();
    b.total_role("cust_region", Side::Left).unwrap();
    b.fact("placed_by", ("placed", "Order"), ("placing", "Customer"))
        .unwrap();
    b.unique("placed_by", Side::Left).unwrap();
    b.total_role("placed_by", Side::Left).unwrap();
    let schema = b.finish().unwrap();

    let placed_by = schema.fact_type_by_name("placed_by").unwrap();
    let wb = Workbench::new(schema);
    let q = ConceptualQuery::list("Order", &["identified_by", "placed_by.based_in"]);
    let normal = wb.map(&MappingOptions::new()).unwrap();
    let mut denorm_opts = MappingOptions::new();
    denorm_opts.combine.push(CombineDirective {
        via: placed_by,
        weight: 10,
    });
    let denorm = wb.map(&denorm_opts).unwrap();
    let cn = compile(&normal, &q).unwrap();
    let cd = compile(&denorm, &q).unwrap();
    assert!(cn.join_count > cd.join_count);

    let mut answers = Vec::new();
    for (out, compiled) in [(&normal, &cn), (&denorm, &cd)] {
        let pop = popgen::generate(
            &out.schema,
            &PopParams {
                instances_per_entity: 8,
                ..PopParams::default()
            },
        );
        let mut db = Database::create(out.rel.clone()).unwrap();
        db.load_state(map_population(&out.schema, out, &pop).unwrap())
            .unwrap();
        let mut rows = db.select(&compiled.query).unwrap();
        rows.sort();
        answers.push(rows);
    }
    assert_eq!(answers[0], answers[1], "plans disagree");
}
