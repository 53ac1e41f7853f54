//! End-to-end tests of the `ridl` command-line interface.

use std::io::Write;
use std::process::{Command, Stdio};

const SCHEMA: &str = r#"
SCHEMA demo;
NOLOT Paper;
NOLOT Program_Paper;
SUBTYPE Program_Paper OF Paper;
LOT Paper_Id : CHAR(6);
LOT Paper_ProgramId : CHAR(2);
LOT-NOLOT Session : NUMERIC(3);
FACT paper_id ( identified_by : Paper , _ : Paper_Id );
UNIQUE paper_id.LEFT; UNIQUE paper_id.RIGHT; TOTAL Paper IN paper_id.LEFT;
FACT pp_id ( has : Program_Paper , with : Paper_ProgramId );
UNIQUE pp_id.LEFT; UNIQUE pp_id.RIGHT; TOTAL Program_Paper IN pp_id.LEFT;
FACT pp_session ( scheduled_in : Program_Paper , comprising : Session );
UNIQUE pp_session.LEFT; TOTAL Program_Paper IN pp_session.LEFT;
"#;

/// Writes `input` to a child's stdin and closes it. A child that exits
/// without reading stdin (a usage error, `tracecheck`, …) may close the
/// pipe first; that broken pipe is not a test failure.
fn feed(child: &mut std::process::Child, input: &[u8]) {
    if let Err(e) = child.stdin.take().expect("piped stdin").write_all(input) {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "{e}");
    }
}

fn ridl(args: &[&str]) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ridl"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ridl");
    feed(&mut child, SCHEMA.as_bytes());
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn check_reports_and_succeeds() {
    let (stdout, _, ok) = ridl(&["check", "-"]);
    assert!(ok);
    assert!(stdout.contains("1. CORRECTNESS"));
    assert!(stdout.contains("-- schema is mappable"));
}

#[test]
fn map_emits_oracle_ddl() {
    let (stdout, stderr, ok) = ridl(&["map", "-", "--dialect", "oracle"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("CREATE TABLE Paper"));
    assert!(stdout.contains("CREATE TABLE Program_Paper"));
    assert!(stderr.contains("tables,"));
}

#[test]
fn query_shows_plan_and_join_count() {
    let (stdout, stderr, ok) = ridl(&[
        "query",
        "-",
        "LIST Program_Paper ( has , comprising , identified_by )",
        "--sublinks",
        "separate",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("(1 joins)"), "{stdout}");
    assert!(stdout.contains("JOIN Paper ON"), "{stdout}");
}

#[test]
fn together_compiles_join_free() {
    let (stdout, _, ok) = ridl(&[
        "query",
        "-",
        "LIST Program_Paper ( has , comprising , identified_by )",
        "--sublinks",
        "together",
    ]);
    assert!(ok);
    assert!(stdout.contains("(0 joins)"), "{stdout}");
}

#[test]
fn fmt_round_trips() {
    let (stdout, _, ok) = ridl(&["fmt", "-"]);
    assert!(ok);
    assert!(stdout.contains("SCHEMA demo;"));
    assert!(stdout.contains("SUBTYPE Program_Paper OF Paper;"));
    // The printed schema reparses.
    assert!(ridl_lang::parse(&stdout).is_ok());
}

#[test]
fn profile_reports_timings_and_firings() {
    let (stdout, stderr, ok) = ridl(&["profile", "-"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("analyze"), "{stdout}");
    assert!(stdout.contains("map"), "{stdout}");
    assert!(stdout.contains("firings"), "{stdout}");
    assert!(stdout.contains("tables"), "{stdout}");
}

#[test]
fn query_explain_prints_executed_plan() {
    let (stdout, stderr, ok) = ridl(&[
        "query",
        "-",
        "LIST Program_Paper ( has , comprising , identified_by )",
        "--explain",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("-- executed plan"), "{stdout}");
    assert!(stdout.contains("scan"), "{stdout}");
    assert!(stdout.contains("join"), "{stdout}");
}

#[test]
fn trace_prints_span_tree_and_histograms() {
    let (stdout, stderr, ok) = ridl(&["trace", "-"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("-- TRANSFORMATION TRACE"), "{stdout}");
    assert!(stdout.contains("-- SPAN TREE"), "{stdout}");
    assert!(stdout.contains("analyzer.analyze"), "{stdout}");
    assert!(stdout.contains("transform.apply"), "{stdout}");
    assert!(stdout.contains("engine.statement"), "{stdout}");
    assert!(stdout.contains("-- LATENCY HISTOGRAMS"), "{stdout}");
    assert!(stdout.contains("p50"), "{stdout}");
    assert!(stdout.contains("p99"), "{stdout}");
}

#[test]
fn lineage_resolves_tables_columns_and_constraints() {
    let (stdout, stderr, ok) = ridl(&["lineage", "-"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("-- LINEAGE"), "{stdout}");
    assert!(stdout.contains("TABLE Paper"), "{stdout}");
    assert!(stdout.contains("<= NOLOT Paper"), "{stdout}");
    assert!(stdout.contains("-- CONSTRAINT LINEAGE"), "{stdout}");
    assert!(
        !stderr.contains("without a BRM source"),
        "all objects resolve: {stderr}"
    );
    // Filtered to one column.
    let (stdout, stderr, ok) = ridl(&["lineage", "-", "Paper.Paper_Id"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("COLUMN Paper.Paper_Id"), "{stdout}");
    assert!(stdout.contains("<= LOT Paper_Id"), "{stdout}");
    assert!(!stdout.contains("CONSTRAINT LINEAGE"), "{stdout}");
    // An unknown filter says so rather than printing nothing.
    let (stdout, _, ok) = ridl(&["lineage", "-", "Nope.Nothing"]);
    assert!(ok);
    assert!(stdout.contains("no matching table or column"), "{stdout}");
}

#[test]
fn trace_json_env_exports_and_tracecheck_validates() {
    let path = std::env::temp_dir().join(format!("ridl-cli-trace-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ridl"))
        .args(["trace", "-"])
        .env("RIDL_TRACE_JSON", &path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ridl");
    feed(&mut child, SCHEMA.as_bytes());
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("chrome trace written"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The emitted file passes the CLI's own validator.
    let (stdout, stderr, ok) = ridl(&["tracecheck", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("well-formed chrome trace"), "{stdout}");
    // A malformed file is rejected with a nonzero exit.
    let bad = std::env::temp_dir().join(format!("ridl-cli-bad-{}.json", std::process::id()));
    std::fs::write(
        &bad,
        "{\"traceEvents\":[\n{\"name\":\"x\",\"ph\":\"B\",\"ts\":1,\"tid\":1}\n]}",
    )
    .unwrap();
    let (_, stderr, ok) = ridl(&["tracecheck", bad.to_str().unwrap()]);
    let _ = std::fs::remove_file(&bad);
    assert!(!ok);
    assert!(stderr.contains("invalid chrome trace"), "{stderr}");
}

/// Like [`ridl`], but with chosen stdin and the raw exit code.
fn ridl_with_input(args: &[&str], input: &str) -> (String, String, Option<i32>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ridl"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ridl");
    feed(&mut child, input.as_bytes());
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// The documented exit-code contract: 1 analysis verdict, 2 usage,
/// 3 missing input, 4 parse error, 5 corrupt artefact — each with a
/// one-line `ridl: …` diagnostic and no panic.
#[test]
fn exit_codes_distinguish_failure_classes() {
    // 2: usage errors — unknown command, unknown flag, missing argument.
    let (_, stderr, code) = ridl_with_input(&["frobnicate"], "");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.starts_with("ridl: unknown command"), "{stderr}");
    let (_, stderr, code) = ridl_with_input(&["map", "-", "--bogus"], SCHEMA);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.starts_with("ridl: unknown option"), "{stderr}");
    let (_, stderr, code) = ridl_with_input(&["map"], "");
    assert_eq!(code, Some(2), "{stderr}");
    // 3: input file missing or unreadable.
    let (_, stderr, code) = ridl_with_input(&["map", "/no/such/schema.ridl"], "");
    assert_eq!(code, Some(3), "{stderr}");
    assert!(
        stderr.starts_with("ridl: reading /no/such/schema.ridl"),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "one-line diagnostic: {stderr}");
    let (_, stderr, code) = ridl_with_input(&["tracecheck", "/no/such/trace.json"], "");
    assert_eq!(code, Some(3), "{stderr}");
    // 4: the input was read but does not parse.
    let (_, stderr, code) = ridl_with_input(&["map", "-"], "NOT A SCHEMA");
    assert_eq!(code, Some(4), "{stderr}");
    assert!(stderr.contains("parse error"), "{stderr}");
    // 1: analysis verdict — parses, analyses, fails the checks.
    let (stdout, stderr, code) = ridl_with_input(&["check", "-"], "SCHEMA bad;\nNOLOT Orphan;\n");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("schema has errors"), "{stderr}");
    assert!(stdout.contains("CORRECTNESS"), "{stdout}");
}

#[test]
fn recover_reports_store_state_and_exit_codes() {
    // Build a durable store under the *same* mapped schema the CLI will
    // derive from SCHEMA with default options.
    let schema = ridl_lang::parse(SCHEMA).unwrap();
    let wb = ridl_core::Workbench::new(schema);
    let out = wb.map(&ridl_core::MappingOptions::new()).unwrap();
    let dir = std::env::temp_dir().join(format!("ridl-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = ridl_engine::Database::open(&dir, out.rel.clone()).unwrap();
    db.checkpoint().unwrap();
    drop(db);

    let (stdout, stderr, code) = ridl_with_input(&["recover", "-", dir.to_str().unwrap()], SCHEMA);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("checkpoint: epoch 1"), "{stdout}");
    assert!(stdout.contains("wal:"), "{stdout}");
    assert!(stdout.contains("-- recovered 0 rows"), "{stdout}");
    assert!(stdout.contains("Paper: 0 rows"), "{stdout}");
    assert!(stdout.contains("stages (ms): read "), "{stdout}");

    // 3: a missing store directory is an input error, not a fresh store.
    let (_, stderr, code) = ridl_with_input(&["recover", "-", "/no/such/store"], SCHEMA);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.starts_with("ridl: store directory"), "{stderr}");

    // 5: a store written under a different schema is corrupt for this one.
    let other = std::env::temp_dir().join(format!("ridl-cli-store-other-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&other);
    {
        use ridl_relational::{Column, RelSchema, Table};
        let mut s = RelSchema::new("other");
        let d = s.domain("D", ridl_brm::DataType::Char(4));
        s.add_table(Table::new("T", vec![Column::not_null("K", d)]));
        ridl_engine::Database::open(&other, s).unwrap();
    }
    let (_, stderr, code) = ridl_with_input(&["recover", "-", other.to_str().unwrap()], SCHEMA);
    assert_eq!(code, Some(5), "{stderr}");
    assert!(stderr.contains("schema"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "one-line diagnostic: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other);
}

#[test]
fn status_inspects_store_offline() {
    let schema = ridl_lang::parse(SCHEMA).unwrap();
    let wb = ridl_core::Workbench::new(schema);
    let out = wb.map(&ridl_core::MappingOptions::new()).unwrap();
    let dir = std::env::temp_dir().join(format!("ridl-cli-status-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = ridl_engine::Database::open(&dir, out.rel.clone()).unwrap();
    db.checkpoint().unwrap();
    drop(db);

    // Human summary: verdict + chain + wal lines, no schema required.
    let (stdout, stderr, code) = ridl_with_input(&["status", dir.to_str().unwrap()], "");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("verdict: clean"), "{stdout}");
    assert!(stdout.contains("chain: epoch 1"), "{stdout}");
    assert!(stdout.contains("wal: epoch 1"), "{stdout}");

    // Machine-readable form.
    let (stdout, stderr, code) = ridl_with_input(&["status", dir.to_str().unwrap(), "--json"], "");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("\"verdict\":\"clean\""), "{stdout}");
    assert!(stdout.contains("\"epoch\":1,"), "{stdout}");
    assert!(
        stdout.contains("\"base_file\":\"checkpoint.snap\""),
        "{stdout}"
    );

    // Inspection is read-only: a second run sees the same store.
    let (stdout2, _, code) = ridl_with_input(&["status", dir.to_str().unwrap(), "--json"], "");
    assert_eq!(code, Some(0));
    assert_eq!(stdout, stdout2, "inspection must not mutate the store");

    // 3: a missing store directory is an input error.
    let (_, stderr, code) = ridl_with_input(&["status", "/no/such/store"], "");
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.starts_with("ridl: store directory"), "{stderr}");
    // 2: unknown flag.
    let (_, _, code) = ridl_with_input(&["status", dir.to_str().unwrap(), "--bogus"], "");
    assert_eq!(code, Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_dump_on_recovery_lists_replay_in_order() {
    // A store whose WAL holds committed units not yet checkpointed, so
    // reopening it replays them.
    let schema = ridl_lang::parse(SCHEMA).unwrap();
    let wb = ridl_core::Workbench::new(schema);
    let out = wb.map(&ridl_core::MappingOptions::new()).unwrap();
    let dir = std::env::temp_dir().join(format!("ridl-cli-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = ridl_engine::Database::open(&dir, out.rel.clone()).unwrap();
        let paper = out
            .rel
            .tables()
            .find(|(_, t)| t.name == "Paper")
            .expect("mapped schema has Paper")
            .1
            .clone();
        for r in 0..3 {
            // Fill only NOT NULL columns (short values fit every CHAR
            // domain; distinct per row for the unique key).
            let row: Vec<Option<ridl_brm::Value>> = paper
                .columns
                .iter()
                .enumerate()
                .map(|(c, col)| (!col.nullable).then(|| ridl_brm::Value::str(format!("{r}{c}"))))
                .collect();
            db.insert("Paper", row).unwrap();
        }
        // Drop without a checkpoint: the three commits stay in the WAL.
    }

    let dump = std::env::temp_dir().join(format!("ridl-cli-journal-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&dump);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ridl"))
        .args(["recover", "-", dir.to_str().unwrap()])
        .env("RIDL_JOURNAL_JSONL", &dump)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ridl");
    feed(&mut child, SCHEMA.as_bytes());
    let out2 = child.wait_with_output().unwrap();
    assert!(
        out2.status.success(),
        "{}",
        String::from_utf8_lossy(&out2.stderr)
    );

    let text = std::fs::read_to_string(&dump).expect("journal dump written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].contains("\"kind\":\"journal.meta\""),
        "meta header first: {}",
        lines[0]
    );
    // The replay record: begin, then one event per unit with a strictly
    // increasing unit index, then done — in dump (= sequence) order.
    let begin = lines
        .iter()
        .position(|l| l.contains("\"kind\":\"recover.begin\""));
    let done = lines
        .iter()
        .position(|l| l.contains("\"kind\":\"recover.done\""));
    assert!(begin.is_some() && done.is_some(), "{text}");
    assert!(begin < done, "begin before done");
    let done_line = lines[done.unwrap()];
    for key in ["\"read_ns\":", "\"validate_ns\":", "\"replay_ns\":"] {
        assert!(
            done_line.contains(key),
            "recover.done lacks {key}: {done_line}"
        );
    }
    let units: Vec<usize> = lines
        .iter()
        .filter(|l| l.contains("\"kind\":\"recover.replay\""))
        .map(|l| {
            let pat = "\"unit\":";
            let s = l.find(pat).unwrap() + pat.len();
            l[s..].split([',', '}']).next().unwrap().parse().unwrap()
        })
        .collect();
    assert_eq!(units, vec![0, 1, 2], "replay events in order: {text}");

    // `ridl events` filters the dump by kind prefix and tails it.
    let (stdout, stderr, code) = ridl_with_input(
        &["events", dump.to_str().unwrap(), "--kind", "recover."],
        "",
    );
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stdout.lines().count() >= 5,
        "begin + 3 replays + done: {stdout}"
    );
    assert!(
        stdout.lines().all(|l| l.contains("\"kind\":\"recover.")),
        "{stdout}"
    );
    let (stdout, _, code) = ridl_with_input(
        &[
            "events",
            dump.to_str().unwrap(),
            "--kind",
            "recover.",
            "--tail",
            "1",
        ],
        "",
    );
    assert_eq!(code, Some(0));
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.contains("recover.done"), "{stdout}");

    let _ = std::fs::remove_file(&dump);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn events_filters_by_severity_and_reports_errors() {
    let path = std::env::temp_dir().join(format!("ridl-cli-events-{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        concat!(
            "{\"seq\":0,\"t_ns\":0,\"sev\":\"info\",\"kind\":\"journal.meta\",\"attrs\":{\"events\":4,\"overwritten\":0}}\n",
            "{\"seq\":1,\"t_ns\":10,\"sev\":\"debug\",\"kind\":\"wal.append\",\"attrs\":{\"bytes\":64}}\n",
            "{\"seq\":2,\"t_ns\":20,\"sev\":\"info\",\"kind\":\"ckpt.decision\",\"attrs\":{\"kind\":\"base\"}}\n",
            "{\"seq\":3,\"t_ns\":30,\"sev\":\"warn\",\"kind\":\"wal.rewind\",\"attrs\":{\"ok\":true}}\n",
            "{\"seq\":4,\"t_ns\":40,\"sev\":\"error\",\"kind\":\"wal.poison\"}\n",
        ),
    )
    .unwrap();

    let (stdout, stderr, code) =
        ridl_with_input(&["events", path.to_str().unwrap(), "--min-sev", "warn"], "");
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    assert!(
        stdout.contains("wal.rewind") && stdout.contains("wal.poison"),
        "{stdout}"
    );
    assert!(stderr.contains("2 of 4 event(s) shown"), "{stderr}");

    let (stdout, _, code) =
        ridl_with_input(&["events", path.to_str().unwrap(), "--kind", "wal."], "");
    assert_eq!(code, Some(0));
    assert_eq!(stdout.lines().count(), 3, "{stdout}");

    // 2: bad severity; 3: missing file.
    let (_, stderr, code) =
        ridl_with_input(&["events", path.to_str().unwrap(), "--min-sev", "loud"], "");
    assert_eq!(code, Some(2), "{stderr}");
    let (_, _, code) = ridl_with_input(&["events", "/no/such/journal.jsonl"], "");
    assert_eq!(code, Some(3));

    let _ = std::fs::remove_file(&path);
}

/// A dump line is read as JSON, not scanned for a `"kind":"…"` substring:
/// a line that is not JSON is a corrupt artefact (exit 5) even when it
/// mentions a kind and a severity.
#[test]
fn events_rejects_a_line_that_is_not_json() {
    let path =
        std::env::temp_dir().join(format!("ridl-cli-events-bad-{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        "{\"seq\":1,\"t_ns\":10,\"sev\":\"info\",\"kind\":\"wal.append\"}\n\
         torn {\"sev\":\"info\",\"kind\":\"wal.fsync\"\n",
    )
    .unwrap();
    let (_, stderr, code) = ridl_with_input(&["events", path.to_str().unwrap()], "");
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(5), "{stderr}");
    assert!(stderr.contains(":2: journal line is not JSON"), "{stderr}");
}

#[test]
fn bad_input_fails_with_message() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ridl"))
        .args(["check", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    feed(&mut child, b"NOT A SCHEMA");
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));
    let (_, stderr, ok) = ridl(&["frobnicate", "-"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

/// `ridl serve` + `ridl client` end to end: a scripted session against a
/// durable store, a protocol-driven shutdown, a `clean` status verdict,
/// and `session.` / `net.` journal kinds filterable via `ridl events`.
#[test]
fn serve_and_client_round_trip_with_session_journal() {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join(format!("ridl-cli-serve-{}", std::process::id()));
    let dump = std::env::temp_dir().join(format!("ridl-cli-serve-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&dump);

    // Serve on an OS-assigned port; the bound address is printed.
    let mut server = Command::new(env!("CARGO_BIN_EXE_ridl"))
        .args([
            "serve",
            "-",
            "--addr",
            "127.0.0.1:0",
            "--dir",
            dir.to_str().unwrap(),
        ])
        .env("RIDL_JOURNAL_JSONL", &dump)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ridl serve");
    // Write the schema and close stdin — `serve -` reads it to EOF.
    let mut stdin = server.stdin.take().unwrap();
    stdin.write_all(SCHEMA.as_bytes()).unwrap();
    drop(stdin);
    let mut stdout = std::io::BufReader::new(server.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .rsplit(" at ")
        .next()
        .expect("bound address in banner")
        .to_string();

    // A scripted client session: write, read back, shut the server down.
    let script = concat!(
        r#"{"id":1,"cmd":"hello","client":"cli-test"}"#,
        "\n",
        r#"{"id":2,"cmd":"insert","table":"Paper","row":["P1",null]}"#,
        "\n",
        r#"{"id":3,"cmd":"query","table":"Paper"}"#,
        "\n",
        r#"{"id":4,"cmd":"shutdown"}"#,
        "\n",
    );
    let (out, err, code) = ridl_with_input(&["client", &addr], script);
    assert_eq!(code, Some(0), "{err}");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "{out}");
    assert!(
        lines[0].contains("\"tables\":[\"Paper\",\"Program_Paper\"]"),
        "{out}"
    );
    assert!(lines[1].contains("\"seq\":1"), "{out}");
    assert!(lines[2].contains("\"rows\":[[\"P1\",null]]"), "{out}");
    assert!(lines[3].contains("\"stopping\":true"), "{out}");

    let status = server.wait_with_output().unwrap();
    assert!(
        status.status.success(),
        "{}",
        String::from_utf8_lossy(&status.stderr)
    );

    // The protocol shutdown checkpointed: the store inspects as clean.
    let (stdout, stderr, code) = ridl_with_input(&["status", dir.to_str().unwrap(), "--json"], "");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("\"verdict\":\"clean\""), "{stdout}");

    // The journal recorded the session lifecycle; `--kind session.` and
    // `--kind net.` select exactly those events.
    let (stdout, _, code) = ridl_with_input(
        &["events", dump.to_str().unwrap(), "--kind", "session."],
        "",
    );
    assert_eq!(code, Some(0));
    for kind in ["session.connect", "session.hello", "session.disconnect"] {
        assert!(stdout.contains(kind), "missing {kind}: {stdout}");
    }
    let (stdout, _, code) =
        ridl_with_input(&["events", dump.to_str().unwrap(), "--kind", "net."], "");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("net.listen"), "{stdout}");
    assert!(stdout.contains("net.shutdown"), "{stdout}");

    let _ = std::fs::remove_file(&dump);
    let _ = std::fs::remove_dir_all(&dir);
}
