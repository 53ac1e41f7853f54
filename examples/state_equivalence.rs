//! State equivalence live (§4.1): populate the conceptual schema, run the
//! schema transformation `g` into a relational state, load it into the
//! constraint-enforcing engine, exercise updates — legal and illegal — and
//! map the final state back to a conceptual population.
//!
//! ```sh
//! cargo run --example state_equivalence
//! ```

use ridl_brm::Value;
use ridl_core::state_map::{equivalent, map_population, unmap_state};
use ridl_core::{MappingOptions, Workbench};
use ridl_engine::{BatchOp, Database, Pred, Query};
use ridl_workloads::fig6;

fn main() {
    let wb = Workbench::new(fig6::schema());
    let out = wb.map(&MappingOptions::new()).unwrap();

    // g: population -> relational state.
    let pop = fig6::population(&out.schema);
    println!(
        "conceptual population: {} object instances, {} fact instances",
        pop.num_object_instances(),
        pop.num_fact_instances()
    );
    let st = map_population(&out.schema, &out, &pop).unwrap();
    println!(
        "g(pop): {} rows across {} tables",
        st.num_rows(),
        out.table_count()
    );

    // The engine accepts it (the state satisfies every generated rule).
    let mut db = Database::create(out.rel.clone()).unwrap();
    db.load_state(st).unwrap();

    // An illegal update: claiming a program id in Paper without the
    // Program_Paper row violates the generated C_EQ$ lossless rule.
    let err = db
        .update_where(
            "Paper",
            &[Pred::Eq("Paper_Id".into(), Value::str("P3"))],
            &[("Paper_ProgramId_Is", Some(Value::str("A9")))],
        )
        .unwrap_err();
    println!("\nillegal update rejected:\n  {err}");

    // The legal update, as one batch the engine checks as a whole: put
    // paper P3 on the program, together with its Program_Paper row.
    let paper = db.schema().table_by_name("Paper").unwrap();
    let col = db
        .schema()
        .table(paper)
        .column_by_name("Paper_ProgramId_Is")
        .unwrap() as usize;
    let p3 = Query::from("Paper").filter(Pred::Eq("Paper_Id".into(), Value::str("P3")));
    let old = db.select(&p3).unwrap().remove(0);
    let mut new = old.clone();
    new[col] = Some(Value::str("A9"));
    db.apply_batch([
        BatchOp::delete("Paper", old),
        BatchOp::insert("Paper", new),
        BatchOp::insert(
            "Program_Paper",
            vec![
                Some(Value::str("A9")),
                Some(Value::Int(3)),
                Some(Value::str("Meersman")),
            ],
        ),
    ])
    .unwrap_or_else(|e| panic!("{e}"));
    println!("legal update committed as one batch");

    // g⁻¹: the final state maps back to a conceptual population.
    let back = unmap_state(&out.schema, &out, db.state()).unwrap();
    println!(
        "g⁻¹(state): {} object instances, {} fact instances",
        back.num_object_instances(),
        back.num_fact_instances()
    );
    let program = out.schema.object_type_by_name("Program_Paper").unwrap();
    println!(
        "Program_Paper membership after update: {} entities (was 2)",
        back.objects_of(program).len()
    );

    // Round trip of the untouched original still holds.
    let st0 = map_population(&out.schema, &out, &pop).unwrap();
    let back0 = unmap_state(&out.schema, &out, &st0).unwrap();
    println!(
        "round trip of the original population: {}",
        if equivalent(&out.schema, &out, &pop, &back0).unwrap() {
            "state-equivalent (lossless)"
        } else {
            "DIVERGED"
        }
    );
}
