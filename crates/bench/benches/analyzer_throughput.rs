//! Experiment **E-A**: RIDL-A throughput across schema sizes — the paper's
//! workflow validates "at each stage of the database engineering project"
//! (§3.2), so analysis must stay interactive at industrial size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use ridl_analyzer::analyze;
use ridl_workloads::synth::{self, GenParams};

fn report() {
    println!("\n== E-A: analyzer findings across sizes ==");
    println!(
        "{:<8} {:>8} {:>8} {:>10} {:>9} {:>9}",
        "nolots", "facts", "cons", "mappable", "warnings", "info"
    );
    for nolots in [10usize, 40, 85] {
        let s = synth::generate(&GenParams {
            seed: 11,
            nolots,
            sublinks: nolots / 5,
            mn_facts: nolots / 2,
            ..GenParams::default()
        });
        let r = analyze(&s.schema);
        println!(
            "{:<8} {:>8} {:>8} {:>10} {:>9} {:>9}",
            nolots,
            s.schema.num_fact_types(),
            s.schema.num_constraints(),
            r.is_mappable(),
            r.count(ridl_analyzer::Severity::Warning),
            r.count(ridl_analyzer::Severity::Info)
        );
    }
}

fn bench(c: &mut Criterion) {
    report();
    let mut group = c.benchmark_group("ridl_a");
    group.sample_size(10);
    for nolots in [10usize, 40, 85] {
        let s = synth::generate(&GenParams {
            seed: 11,
            nolots,
            sublinks: nolots / 5,
            mn_facts: nolots / 2,
            ..GenParams::default()
        });
        group.throughput(Throughput::Elements(s.schema.num_fact_types() as u64));
        group.bench_with_input(
            BenchmarkId::new("analyze", nolots),
            &s.schema,
            |b, schema| b.iter(|| analyze(schema)),
        );
    }
    group.finish();

    // The individual functions, at mid size.
    let s = synth::generate(&GenParams {
        seed: 11,
        nolots: 40,
        sublinks: 8,
        mn_facts: 20,
        ..GenParams::default()
    });
    let mut group = c.benchmark_group("ridl_a_functions");
    group.bench_function("correctness", |b| {
        b.iter(|| ridl_analyzer::correctness::check(&s.schema))
    });
    group.bench_function("completeness", |b| {
        b.iter(|| ridl_analyzer::completeness::check(&s.schema))
    });
    group.bench_function("setalg_consistency", |b| {
        b.iter(|| ridl_analyzer::setalg::check(&s.schema))
    });
    // At the §5 industrial size (about 1,900 population nodes) the
    // saturation's cost shows; at 40 NOLOTs it hides.
    let industrial = synth::generate(&GenParams::industrial(1989));
    group.bench_function("setalg_consistency_industrial", |b| {
        b.iter(|| ridl_analyzer::setalg::check(&industrial.schema))
    });
    group.bench_function("reference_inference", |b| {
        b.iter(|| ridl_analyzer::reference::infer(&s.schema))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
