//! Byte-for-byte pins on the design loop's outputs: the RIDL-A report, both
//! directions of the map report, and each dialect's DDL text and statistics,
//! for industrial schemas under the option sets the `design` benchmark
//! runs. The digests were recorded from the dense-matrix saturation and the
//! rescanning renderers; the linear-time implementations must reproduce
//! them exactly.

use ridl_core::{MappingOptions, NullOption, SublinkOption, Workbench};
use ridl_sqlgen::{generate_for, DialectKind, GeneratedDdl};
use ridl_workloads::synth::{self, GenParams};

const SEEDS: [u64; 3] = [1989, 2000, 31];

const DIALECTS: [DialectKind; 4] = [
    DialectKind::Sql2,
    DialectKind::Oracle,
    DialectKind::Ingres,
    DialectKind::Db2,
];

fn option_sets() -> [MappingOptions; 3] {
    [
        MappingOptions::new(),
        MappingOptions::new().with_nulls(NullOption::NullNotAllowed),
        MappingOptions::new().with_sublinks(SublinkOption::Together),
    ]
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn ddl_digest(d: &GeneratedDdl) -> String {
    let lines: Vec<String> = d.table_lines.iter().map(usize::to_string).collect();
    format!(
        "{:016x} lines={:016x} enforced={} commented={}",
        fnv(d.text.as_bytes()),
        fnv(lines.join(",").as_bytes()),
        d.enforced_constraints,
        d.commented_constraints
    )
}

/// One line per output: `seed/option/what digest`.
fn digests() -> Vec<String> {
    let mut out = Vec::new();
    for seed in SEEDS {
        let wb = Workbench::new(synth::generate(&GenParams::industrial(seed)).schema);
        out.push(format!(
            "{seed} analysis {:016x}",
            fnv(wb.analysis().render().as_bytes())
        ));
        for (o, opts) in option_sets().iter().enumerate() {
            let mapped = wb.map(opts).expect("industrial schemas map");
            let report = wb.map_report(&mapped);
            out.push(format!(
                "{seed}/{o} forwards {:016x}",
                fnv(report.forwards.as_bytes())
            ));
            out.push(format!(
                "{seed}/{o} backwards {:016x}",
                fnv(report.backwards.as_bytes())
            ));
            for kind in DIALECTS {
                let d = generate_for(&mapped.rel, kind);
                out.push(format!("{seed}/{o} {kind:?} {}", ddl_digest(&d)));
            }
        }
    }
    out
}

const EXPECTED: &str = "\
1989 analysis 12e69be11da18037
1989/0 forwards 420de4a26ca9443f
1989/0 backwards 2360a7cd3c65912b
1989/0 Sql2 581554b7b69baf11 lines=c42086869b2ea4d8 enforced=409 commented=174
1989/0 Oracle e7e3cd6ecb19aa60 lines=9c35b0a2c62955e5 enforced=153 commented=430
1989/0 Ingres beaf16b12bf5f1e4 lines=b6053d72bfdab705 enforced=153 commented=480
1989/0 Db2 9e4b074e264c30ea lines=9c35b0a2c62955e5 enforced=393 commented=190
1989/1 forwards d78ba41b8bccbb60
1989/1 backwards c7f1c08c4ba817b2
1989/1 Sql2 5305690be1f6b08c lines=8e327f18c30cbfd6 enforced=851 commented=174
1989/1 Oracle 871799a08c9a9d8e lines=c51d813bcc805c04 enforced=374 commented=651
1989/1 Ingres 159e05439c55547f lines=05b46bde52642df3 enforced=374 commented=701
1989/1 Db2 53608c649cabf9f0 lines=c51d813bcc805c04 enforced=835 commented=190
1989/2 forwards ec0d072bd39802ed
1989/2 backwards bad5a405f2d46375
1989/2 Sql2 9b4b86079a1ee99f lines=f55df69b7372ea30 enforced=425 commented=235
1989/2 Oracle 72c08c1cd992ceef lines=7784724966f8a81f enforced=135 commented=525
1989/2 Ingres 1c8013c907e413cb lines=233adcc7e2833f9f enforced=135 commented=575
1989/2 Db2 2c727dc2193c2bff lines=7784724966f8a81f enforced=357 commented=303
2000 analysis 12e69be11da18037
2000/0 forwards b6c25b357c4f6f18
2000/0 backwards d8d7a33bfd4f862b
2000/0 Sql2 2574aa478ad77203 lines=68c7e3182758b97f enforced=395 commented=146
2000/0 Oracle 6da973154027f560 lines=5da97290d4833a78 enforced=147 commented=394
2000/0 Ingres 5b22b680f9a09847 lines=7a5fac113963098c enforced=147 commented=438
2000/0 Db2 7bab56dd942c543a lines=5da97290d4833a78 enforced=370 commented=171
2000/1 forwards 4f54f26ff659ae46
2000/1 backwards ade0842b05e3ae5b
2000/1 Sql2 a8dfc819b730d14e lines=f51fcde89a42bef2 enforced=801 commented=146
2000/1 Oracle a7be4b8fa994f154 lines=499e5efe57e981e6 enforced=350 commented=597
2000/1 Ingres a820b3b61420e825 lines=44d2fb25b34e77bc enforced=350 commented=641
2000/1 Db2 f94e07e20996bd5b lines=499e5efe57e981e6 enforced=776 commented=171
2000/2 forwards f4cab7dbca1ec232
2000/2 backwards 2d4b5fa84f3057fd
2000/2 Sql2 597a2c58fb2201ca lines=0431144d9e2680e1 enforced=401 commented=213
2000/2 Oracle 0fe753080433cc4a lines=9b2a9a29ffc6da06 enforced=129 commented=485
2000/2 Ingres 68259eaa741d03e9 lines=67a5ceec09c3403d enforced=129 commented=529
2000/2 Db2 47a090e801eb3704 lines=9b2a9a29ffc6da06 enforced=334 commented=280
31 analysis 12e69be11da18037
31/0 forwards cfef82c1464750d3
31/0 backwards f7a4aa6607939822
31/0 Sql2 e1664e3e0879904e lines=544d9bbc658a1e29 enforced=418 commented=147
31/0 Oracle ed651886fe5b0190 lines=cc89af654a0218a1 enforced=148 commented=417
31/0 Ingres 85567219a1582962 lines=1ac7cf72c4436829 enforced=148 commented=462
31/0 Db2 3481f42601e0962e lines=cc89af654a0218a1 enforced=386 commented=179
31/1 forwards fbe70382125b6b24
31/1 backwards 7923c12f614093a7
31/1 Sql2 1bea54b677731ce0 lines=e7061a281b1fb72e enforced=828 commented=147
31/1 Oracle 583588338d80b3cb lines=6fd3e144d0eed6b2 enforced=353 commented=622
31/1 Ingres 0a12a44e8279acaa lines=73b226d810f8e1f5 enforced=353 commented=667
31/1 Db2 05bff75d58710e82 lines=6fd3e144d0eed6b2 enforced=796 commented=179
31/2 forwards edc37ba158a6efc7
31/2 backwards cb78f7e61580213e
31/2 Sql2 450daba19774cd81 lines=1a53c6263229365c enforced=426 commented=210
31/2 Oracle 2a5630d4a572652c lines=3f7b43041209c7c8 enforced=130 commented=506
31/2 Ingres b432f9686ad73b17 lines=088de4cf58f3c79a enforced=130 commented=551
31/2 Db2 0523b130ca9d39a0 lines=3f7b43041209c7c8 enforced=350 commented=286
";

#[test]
fn design_outputs_match_the_recorded_digests() {
    let got = digests().join("\n");
    assert_eq!(
        got.trim(),
        EXPECTED.trim(),
        "design outputs changed; the current digests are:\n{got}"
    );
}

#[test]
fn table_lines_count_each_table_section() {
    let s = synth::generate(&GenParams::industrial(SEEDS[0])).schema;
    let wb = Workbench::new(s);
    let mapped = wb.map(&MappingOptions::new()).unwrap();
    for kind in DIALECTS {
        let d = generate_for(&mapped.rel, kind);
        // A section runs from its `-- TABLE` header to the next one (the
        // last to the end of the text).
        let starts: Vec<usize> = d.text.match_indices("-- TABLE ").map(|(i, _)| i).collect();
        assert_eq!(starts.len(), d.table_lines.len(), "{kind:?}");
        for (i, &start) in starts.iter().enumerate() {
            let end = starts.get(i + 1).copied().unwrap_or(d.text.len());
            let newlines = d.text[start..end].matches('\n').count();
            assert_eq!(d.table_lines[i], newlines, "{kind:?} table {i}");
        }
    }
}

/// The lexer accepts any Unicode alphabetic identifier; DB2's 18-character
/// folding must cut such names on character boundaries, not mid-character.
#[test]
fn db2_folds_non_ascii_names_from_source() {
    let src = "\
SCHEMA strassen;
NOLOT Abcdefghijkü_Übersicht_Straße;
LOT ÄÖÜÄÖÜÄÖÜÄÖÜ : CHAR(6);
LOT Ölförderländerübersicht : CHAR(20);
FACT straße_id ( identified_by : Abcdefghijkü_Übersicht_Straße , _ : ÄÖÜÄÖÜÄÖÜÄÖÜ );
FACT straße_bezeichnung ( bezeichnet : Abcdefghijkü_Übersicht_Straße , _ : Ölförderländerübersicht );
UNIQUE straße_id.LEFT; UNIQUE straße_id.RIGHT;
TOTAL Abcdefghijkü_Übersicht_Straße IN straße_id.LEFT;
UNIQUE straße_bezeichnung.LEFT;
";
    let schema = ridl_lang::parse(src).expect("the source parses");
    let wb = Workbench::new(schema);
    assert!(wb.analysis().is_mappable(), "{}", wb.analysis().render());
    let mapped = wb.map(&MappingOptions::new()).unwrap();
    let ddl = generate_for(&mapped.rel, DialectKind::Db2);
    assert_eq!(ddl.table_lines.len(), mapped.table_count());
    let creates: Vec<&str> = ddl
        .text
        .lines()
        .filter_map(|l| l.strip_prefix("CREATE TABLE "))
        .collect();
    assert!(!creates.is_empty(), "{}", ddl.text);
    for name in creates {
        assert!(name.trim().chars().count() <= 18, "{name}");
    }
    assert!(ddl.text.contains("Abcdefghijkü_traße"), "{}", ddl.text);
}
