//! `ridl` — the RIDL\* workbench from the command line.
//!
//! ```text
//! ridl check   <schema.ridl> [--implied]         run RIDL-A
//! ridl map     <schema.ridl> [options]           run RIDL-M, print DDL
//! ridl report  <schema.ridl> [options]           print the map report
//! ridl trace   <schema.ridl> [options]           run the full pipeline under span
//!                                                tracing: transformation trace,
//!                                                span tree, latency histograms
//! ridl lineage <schema.ridl> [Table[.Column]] [options]
//!                                                BRM provenance of the mapped schema
//! ridl tracecheck <trace.json>                   validate a Chrome trace JSON file
//! ridl profile <schema.ridl> [options]           profile analyze + map (timings, rule firings)
//! ridl fmt     <schema.ridl>                     pretty-print the schema
//! ridl query   <schema.ridl> "LIST …" [--explain] [options]
//!                                                compile a conceptual query
//! ridl recover <schema.ridl> <store-dir> [options]
//!                                                recover a durable store: checkpoint
//!                                                + WAL replay, print the report
//! ridl status  <store-dir> [--json]              inspect a store offline (read-only):
//!                                                checkpoint chain, WAL health, debris
//! ridl events  <journal.jsonl> [--kind P] [--min-sev S] [--tail N]
//!                                                tail/filter a flight-recorder dump;
//!                                                --kind filters by prefix, e.g.
//!                                                session. (connect/hello/statement/
//!                                                reject/disconnect), net. (listen/
//!                                                shutdown), wal., engine.
//! ridl serve   <schema.ridl> [--dir STORE] [--addr A] [--max-sessions N]
//!                                                serve the mapped schema over TCP
//!                                                (line-delimited JSON protocol);
//!                                                stops on the shutdown command
//! ridl client  <addr> [--hello NAME]             scriptable client: request lines
//!                                                from stdin, response lines to stdout
//!
//! options:
//!   --nulls default|not-allowed|not-in-keys|allowed
//!   --sublinks separate|together|indicator
//!   --dialect sql2|oracle|ingres|db2
//! ```
//!
//! A path of `-` reads the schema from stdin. Set
//! `RIDL_TRACE_JSON=<path>` to enable span tracing and write a Chrome
//! trace-event file (loadable in Perfetto or `chrome://tracing`) at exit;
//! `ridl trace` enables the spans regardless and honours the variable for
//! the JSON export. Set `RIDL_JOURNAL_JSONL=<path>` to dump the durability
//! flight recorder there — on recovery, on panic, and at process exit.
//!
//! Exit codes distinguish the failure class so scripts can react:
//! `1` the schema failed analysis (`ridl check` verdict), `2` a usage
//! error (unknown command/flag, missing argument), `3` a missing or
//! unreadable input file, `4` a parse or schema error, `5` a corrupt
//! store or trace artefact. Every failure prints one `ridl: …`
//! diagnostic line to stderr (a check/map verdict may carry the analysis
//! rendering after it); no failure panics.

use std::io::Read;
use std::process::ExitCode;

use ridl_core::{MappingOptions, NullOption, SublinkOption, Workbench};
use ridl_sqlgen::DialectKind;

/// A classified CLI failure: the variant decides the process exit code.
enum CliError {
    /// Analysis rejected the schema — the tool ran fine (exit 1).
    Verdict(String),
    /// Bad invocation: unknown command/flag or missing argument (exit 2).
    Usage(String),
    /// An input file is missing or unreadable (exit 3).
    Input(String),
    /// The input was read but does not parse / does not map (exit 4).
    Parse(String),
    /// A store or trace artefact is corrupt (exit 5).
    Corrupt(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Verdict(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Input(_) => 3,
            CliError::Parse(_) => 4,
            CliError::Corrupt(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Verdict(m)
            | CliError::Usage(m)
            | CliError::Input(m)
            | CliError::Parse(m)
            | CliError::Corrupt(m) => m,
        }
    }
}

fn usage(msg: &str) -> CliError {
    CliError::Usage(msg.to_owned())
}

fn read_schema(path: &str) -> Result<ridl_brm::Schema, CliError> {
    let src = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| CliError::Input(format!("reading stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::Input(format!("reading {path}: {e}")))?
    };
    ridl_lang::parse(&src).map_err(|e| CliError::Parse(format!("{path}: {e}")))
}

struct Cli {
    nulls: NullOption,
    sublinks: SublinkOption,
    dialect: DialectKind,
}

fn parse_flags(args: &[String]) -> Result<Cli, CliError> {
    let mut cli = Cli {
        nulls: NullOption::Default,
        sublinks: SublinkOption::Separate,
        dialect: DialectKind::Sql2,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| {
            it.next()
                .cloned()
                .ok_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--nulls" => {
                cli.nulls = match value(&mut it)?.as_str() {
                    "default" => NullOption::Default,
                    "not-allowed" => NullOption::NullNotAllowed,
                    "not-in-keys" => NullOption::NullNotInKeys,
                    "allowed" => NullOption::NullAllowed,
                    other => return Err(usage(&format!("unknown null option {other}"))),
                }
            }
            "--sublinks" => {
                cli.sublinks = match value(&mut it)?.as_str() {
                    "separate" => SublinkOption::Separate,
                    "together" => SublinkOption::Together,
                    "indicator" => SublinkOption::IndicatorForSupot,
                    other => return Err(usage(&format!("unknown sublink option {other}"))),
                }
            }
            "--dialect" => {
                cli.dialect = match value(&mut it)?.as_str() {
                    "sql2" => DialectKind::Sql2,
                    "oracle" => DialectKind::Oracle,
                    "ingres" => DialectKind::Ingres,
                    "db2" => DialectKind::Db2,
                    other => return Err(usage(&format!("unknown dialect {other}"))),
                }
            }
            other => return Err(usage(&format!("unknown option {other}"))),
        }
    }
    Ok(cli)
}

fn mapped(
    path: &str,
    flags: &[String],
) -> Result<(Workbench, ridl_core::MappingOutput, Cli), CliError> {
    let cli = parse_flags(flags)?;
    let schema = read_schema(path)?;
    let wb = Workbench::new(schema);
    if !wb.analysis().is_mappable() {
        return Err(CliError::Parse(format!(
            "schema is not mappable; run `ridl check`:\n{}",
            wb.analysis().render()
        )));
    }
    let options = MappingOptions::new()
        .with_nulls(cli.nulls)
        .with_sublinks(cli.sublinks);
    let out = wb
        .map(&options)
        .map_err(|e| CliError::Parse(e.to_string()))?;
    Ok((wb, out, cli))
}

/// Drives the constraint engine once so `ridl trace` covers enforcement:
/// bulk-loads a small generated population (falling back to an empty state
/// when the schema is outside the generator's discipline) so the statement,
/// validation and per-constraint-class spans appear in the tree.
fn drive_engine(wb: &Workbench, out: &ridl_core::MappingOutput) {
    let Ok(mut db) = ridl_engine::Database::create(out.rel.clone()) else {
        return;
    };
    let state = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let pop = ridl_workloads::popgen::generate(
            wb.schema(),
            &ridl_workloads::popgen::PopParams::default(),
        );
        ridl_core::state_map::map_population(&out.schema, out, &pop).ok()
    }))
    .ok()
    .flatten()
    .unwrap_or_else(|| ridl_relational::RelState::with_tables(out.rel.tables.len()));
    let rows = ridl_workloads::scenario::rows_of(&out.rel, &state);
    if db.bulk_load(rows).is_err() {
        // A generated population the engine rejects still traced the
        // validation; load the empty state so the tree also shows the
        // load path.
        let empty = ridl_relational::RelState::with_tables(out.rel.tables.len());
        let _ = db.load_state(empty);
    }
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().ok_or_else(|| {
        usage("usage: ridl <check|map|report|trace|profile|fmt|query|recover|status|events|serve|client> <schema.ridl> [options]")
    })?;
    match cmd.as_str() {
        "check" => {
            let (path, flags) = rest
                .split_first()
                .ok_or_else(|| usage("usage: ridl check <schema.ridl> [--implied]"))?;
            let schema = read_schema(path)?;
            let wb = Workbench::new(schema);
            print!("{}", wb.analysis().render());
            if flags.iter().any(|f| f == "--implied") {
                // On-demand, as in the paper: one saturation per candidate.
                println!("-- 5. IMPLIED CONSTRAINTS (on demand)");
                let findings = ridl_analyzer::setalg::implied_constraints(wb.schema());
                if findings.is_empty() {
                    println!("   (no superfluous definitions)");
                }
                for f in findings {
                    println!("   {f}");
                }
            }
            if wb.analysis().is_mappable() {
                println!("-- schema is mappable");
                Ok(())
            } else {
                Err(CliError::Verdict("schema has errors".into()))
            }
        }
        "map" => {
            let (path, flags) = rest
                .split_first()
                .ok_or_else(|| usage("usage: ridl map <schema.ridl> [options]"))?;
            let (_, out, cli) = mapped(path, flags)?;
            let ddl = ridl_sqlgen::generate_for(&out.rel, cli.dialect);
            print!("{}", ddl.text);
            eprintln!(
                "-- {} tables, {} constraints ({} pseudo-SQL), {} lines",
                out.table_count(),
                out.rel.constraints.len(),
                ddl.commented_constraints,
                ddl.total_lines()
            );
            for note in &out.notes {
                eprintln!("-- note: {note}");
            }
            Ok(())
        }
        "report" => {
            let (path, flags) = rest
                .split_first()
                .ok_or_else(|| usage("usage: ridl report <schema.ridl> [options]"))?;
            let (wb, out, _) = mapped(path, flags)?;
            let report = wb.map_report(&out);
            print!("{}", report.forwards);
            print!("{}", report.backwards);
            Ok(())
        }
        "trace" => {
            let (path, flags) = rest
                .split_first()
                .ok_or_else(|| usage("usage: ridl trace <schema.ridl> [options]"))?;
            // Span tracing covers the whole pipeline: RIDL-A passes, every
            // applied basic transformation, SQL generation and the engine's
            // statement → validation → per-constraint-class enforcement.
            ridl_obs::set_tracing(true);
            let (wb, out, cli) = mapped(path, flags)?;
            let _ddl = ridl_sqlgen::generate_for(&out.rel, cli.dialect);
            drive_engine(&wb, &out);
            print!("{}", out.trace.render());
            let (events, dropped) = ridl_obs::span::take_events();
            if dropped > 0 {
                eprintln!(
                    "-- warning: {dropped} span(s) dropped at the collector cap; the tree \
                     and trace below are incomplete"
                );
            }
            print!("{}", ridl_obs::render_tree(&events));
            print!("{}", ridl_obs::render_histograms());
            if let Ok(json_path) = std::env::var("RIDL_TRACE_JSON") {
                if !json_path.is_empty() {
                    ridl_obs::write_chrome_trace(&json_path, &events, dropped)
                        .map_err(|e| CliError::Input(format!("writing {json_path}: {e}")))?;
                    eprintln!("-- chrome trace written to {json_path} (load in Perfetto)");
                }
            }
            Ok(())
        }
        "lineage" => {
            let (path, more) = rest.split_first().ok_or_else(|| {
                usage("usage: ridl lineage <schema.ridl> [Table[.Column]] [options]")
            })?;
            // An optional bare `Table` or `Table.Column` filter precedes the
            // `--` options.
            let (filter, flags) = match more.split_first() {
                Some((f, tail)) if !f.starts_with("--") => (Some(f.as_str()), tail),
                _ => (None, more),
            };
            let (wb, out, _) = mapped(path, flags)?;
            let lin = wb.lineage(&out);
            let (table, column) = match filter {
                Some(f) => match f.split_once('.') {
                    Some((t, c)) => (Some(t), Some(c)),
                    None => (Some(f), None),
                },
                None => (None, None),
            };
            print!("{}", lin.render_filtered(&out.trace, table, column));
            let unresolved = lin.unresolved();
            if !unresolved.is_empty() {
                eprintln!("-- {} objects without a BRM source:", unresolved.len());
                for t in unresolved {
                    eprintln!("--    {t}");
                }
            }
            Ok(())
        }
        "tracecheck" => {
            let (path, _) = rest
                .split_first()
                .ok_or_else(|| usage("usage: ridl tracecheck <trace.json>"))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Input(format!("reading {path}: {e}")))?;
            let stats = ridl_obs::validate_chrome_trace(&text)
                .map_err(|e| CliError::Corrupt(format!("{path}: invalid chrome trace: {e}")))?;
            println!(
                "-- {path}: well-formed chrome trace ({} spans over {} threads)",
                stats.spans, stats.threads
            );
            if stats.dropped_at_cap > 0 {
                eprintln!(
                    "-- warning: {} span(s) were dropped at the collector cap when this \
                     trace was recorded; it is incomplete",
                    stats.dropped_at_cap
                );
            }
            Ok(())
        }
        "profile" => {
            let (path, flags) = rest
                .split_first()
                .ok_or_else(|| usage("usage: ridl profile <schema.ridl> [options]"))?;
            let cli = parse_flags(flags)?;
            let schema = read_schema(path)?;
            let wb = Workbench::new(schema);
            if !wb.analysis().is_mappable() {
                return Err(CliError::Parse(format!(
                    "schema is not mappable; run `ridl check`:\n{}",
                    wb.analysis().render()
                )));
            }
            let options = MappingOptions::new()
                .with_nulls(cli.nulls)
                .with_sublinks(cli.sublinks);
            let (_, profile) = wb
                .map_profiled(&options)
                .map_err(|e| CliError::Parse(e.to_string()))?;
            print!("{}", profile.render());
            Ok(())
        }
        "fmt" => {
            let (path, _) = rest
                .split_first()
                .ok_or_else(|| usage("usage: ridl fmt <schema.ridl>"))?;
            let schema = read_schema(path)?;
            print!("{}", ridl_lang::print(&schema));
            Ok(())
        }
        "query" => {
            let (path, more) = rest
                .split_first()
                .ok_or_else(|| usage("usage: ridl query <schema.ridl> \"LIST …\" [options]"))?;
            let (text, flags) = more
                .split_first()
                .ok_or_else(|| usage("usage: ridl query <schema.ridl> \"LIST …\" [options]"))?;
            let explain = flags.iter().any(|f| f == "--explain");
            let flags: Vec<String> = flags
                .iter()
                .filter(|f| *f != "--explain")
                .cloned()
                .collect();
            let (_, out, _) = mapped(path, &flags)?;
            let q = ridl_query::parse_query(text).map_err(|e| CliError::Parse(e.to_string()))?;
            let compiled =
                ridl_query::compile(&out, &q).map_err(|e| CliError::Parse(e.to_string()))?;
            println!(
                "-- compiled against {} ({} joins)",
                out.options.announce(),
                compiled.join_count
            );
            println!("SELECT {}", compiled.query.select.join(" , "));
            println!("  FROM {}", compiled.query.table);
            for j in &compiled.query.joins {
                let on: Vec<String> =
                    j.on.iter()
                        .map(|(l, r)| format!("{l} = {}.{r}", j.table))
                        .collect();
                println!("  JOIN {} ON {}", j.table, on.join(" AND "));
            }
            if !compiled.query.filter.is_empty() {
                let conds: Vec<String> = compiled
                    .query
                    .filter
                    .iter()
                    .map(|p| match p {
                        ridl_engine::Pred::Eq(c, v) => format!("{c} = {v}"),
                        ridl_engine::Pred::IsNull(c) => format!("{c} IS NULL"),
                        ridl_engine::Pred::NotNull(c) => format!("{c} IS NOT NULL"),
                    })
                    .collect();
                println!(" WHERE {}", conds.join(" AND "));
            }
            if explain {
                // Execute the plan against an (empty) engine instance: the
                // step sequence is real even when the row counts are zero.
                let db = ridl_engine::Database::create(out.rel.clone())
                    .map_err(|e| CliError::Parse(e.to_string()))?;
                let plan = db
                    .explain(&compiled.query)
                    .map_err(|e| CliError::Parse(e.to_string()))?;
                println!("-- executed plan");
                print!("{}", plan.render());
            }
            Ok(())
        }
        "recover" => {
            let (path, more) = rest
                .split_first()
                .ok_or_else(|| usage("usage: ridl recover <schema.ridl> <store-dir> [options]"))?;
            let (store, flags) = more
                .split_first()
                .ok_or_else(|| usage("usage: ridl recover <schema.ridl> <store-dir> [options]"))?;
            let (_, out, _) = mapped(path, flags)?;
            // Opening a missing directory would initialise a fresh store —
            // for an explicit recovery request that is an input error.
            if !std::path::Path::new(store).is_dir() {
                return Err(CliError::Input(format!(
                    "store directory {store} does not exist"
                )));
            }
            let db = ridl_engine::Database::open(store, out.rel.clone()).map_err(|e| match e {
                ridl_engine::EngineError::Io(m) => {
                    CliError::Input(format!("opening store {store}: {m}"))
                }
                other => CliError::Corrupt(format!("recovering store {store}: {other}")),
            })?;
            let report = db.recovery_report().expect("open always reports");
            println!("{report}");
            for (tid, t) in out.rel.tables() {
                println!("   {}: {} rows", t.name, db.state().rows(tid).len());
            }
            println!(
                "-- recovered {} rows across {} tables; WAL is {} bytes",
                db.state().num_rows(),
                out.rel.tables.len(),
                db.wal_bytes().unwrap_or(0)
            );
            Ok(())
        }
        "status" => {
            let (store, flags) = rest
                .split_first()
                .ok_or_else(|| usage("usage: ridl status <store-dir> [--json]"))?;
            let json = match flags {
                [] => false,
                [f] if f == "--json" => true,
                _ => return Err(usage("usage: ridl status <store-dir> [--json]")),
            };
            // Unlike `ridl recover`, status never opens the database (no
            // schema needed) and never writes: it reads the checkpoint
            // chain and WAL exactly as recovery would, and reports.
            if !std::path::Path::new(store).is_dir() {
                return Err(CliError::Input(format!(
                    "store directory {store} does not exist"
                )));
            }
            let status =
                ridl_durable::inspect_store(&ridl_durable::StdIo, std::path::Path::new(store))
                    .map_err(|e| CliError::Input(format!("inspecting store {store}: {e}")))?;
            if json {
                println!("{}", status.to_json());
            } else {
                print!("{status}");
            }
            // Health is the *output*, not the exit code: a corrupt store
            // was still successfully inspected.
            Ok(())
        }
        "events" => {
            let (path, flags) = rest.split_first().ok_or_else(|| {
                usage("usage: ridl events <journal.jsonl> [--kind P] [--min-sev S] [--tail N]")
            })?;
            let mut kind_prefix: Option<String> = None;
            let mut min_sev = ridl_obs::Severity::Debug;
            let mut tail: Option<usize> = None;
            let mut it = flags.iter();
            while let Some(a) = it.next() {
                let value = |it: &mut std::slice::Iter<String>| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| usage(&format!("{a} needs a value")))
                };
                match a.as_str() {
                    "--kind" => kind_prefix = Some(value(&mut it)?),
                    "--min-sev" => {
                        let v = value(&mut it)?;
                        min_sev = ridl_obs::Severity::parse(&v).ok_or_else(|| {
                            usage(&format!("unknown severity {v} (debug|info|warn|error)"))
                        })?;
                    }
                    "--tail" => {
                        let v = value(&mut it)?;
                        tail = Some(
                            v.parse()
                                .map_err(|_| usage(&format!("--tail needs a number, got {v}")))?,
                        );
                    }
                    other => return Err(usage(&format!("unknown events option {other}"))),
                }
            }
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Input(format!("reading {path}: {e}")))?;
            // Every line is one JSON journal event; the journal.meta
            // header line is skipped.
            use ridl_obs::json::Json;
            let mut selected: Vec<&str> = Vec::new();
            let mut total = 0usize;
            for (lineno, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let corrupt =
                    |what: &str| CliError::Corrupt(format!("{path}:{}: {what}", lineno + 1));
                let event = ridl_obs::json::parse(line)
                    .map_err(|e| corrupt(&format!("journal line is not JSON ({e})")))?;
                let kind = event
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or_else(|| corrupt("journal line without kind"))?;
                if kind == "journal.meta" {
                    continue;
                }
                total += 1;
                let sev = event
                    .get("sev")
                    .and_then(Json::as_str)
                    .and_then(ridl_obs::Severity::parse)
                    .ok_or_else(|| corrupt("journal line without severity"))?;
                if sev < min_sev {
                    continue;
                }
                if let Some(p) = &kind_prefix {
                    if !kind.starts_with(p.as_str()) {
                        continue;
                    }
                }
                selected.push(line);
            }
            let shown = match tail {
                Some(n) => &selected[selected.len().saturating_sub(n)..],
                None => &selected[..],
            };
            for line in shown {
                println!("{line}");
            }
            eprintln!("-- {} of {} event(s) shown from {path}", shown.len(), total);
            Ok(())
        }
        "serve" => {
            let (path, flags) = rest.split_first().ok_or_else(|| {
                usage("usage: ridl serve <schema.ridl> [--dir STORE] [--addr A] [--max-sessions N]")
            })?;
            let mut addr = "127.0.0.1:7077".to_string();
            let mut dir: Option<String> = None;
            let mut cfg = ridl_server::ServerConfig::default();
            let mut it = flags.iter();
            while let Some(a) = it.next() {
                let value = |it: &mut std::slice::Iter<String>| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| usage(&format!("{a} needs a value")))
                };
                match a.as_str() {
                    "--addr" => addr = value(&mut it)?,
                    "--dir" => dir = Some(value(&mut it)?),
                    "--max-sessions" => {
                        let v = value(&mut it)?;
                        cfg.max_sessions = v.parse().map_err(|_| {
                            usage(&format!("--max-sessions needs a number, got {v}"))
                        })?;
                    }
                    other => return Err(usage(&format!("unknown serve option {other}"))),
                }
            }
            let (_, out, _) = mapped(path, &[])?;
            // The commit pipeline owns the fsync cadence (one per batch via
            // flush_wal), so the store itself must never fsync per commit.
            let db = match &dir {
                None => ridl_engine::Database::create(out.rel.clone())
                    .map_err(|e| CliError::Parse(format!("creating database: {e}")))?,
                Some(d) => ridl_engine::Database::open_with(
                    std::sync::Arc::new(ridl_engine::StdIo),
                    d,
                    out.rel.clone(),
                    ridl_engine::Durability {
                        fsync: ridl_engine::FsyncPolicy::Never,
                        ..Default::default()
                    },
                )
                .map_err(|e| CliError::Corrupt(format!("opening store {d}: {e}")))?,
            };
            let server = ridl_server::Server::start(db, &addr, cfg)
                .map_err(|e| CliError::Input(format!("binding {addr}: {e}")))?;
            println!("-- serving {} at {}", out.rel.name, server.addr());
            println!(
                "   line-delimited JSON; send {{\"cmd\":\"shutdown\"}} to stop \
                 (see DESIGN.md §13)"
            );
            server.wait_shutdown_request();
            server
                .shutdown()
                .map_err(|e| CliError::Corrupt(format!("shutdown: {e}")))?;
            println!("-- server stopped cleanly");
            Ok(())
        }
        "client" => {
            let (addr, flags) = rest
                .split_first()
                .ok_or_else(|| usage("usage: ridl client <addr> [--hello NAME]"))?;
            let mut hello: Option<String> = None;
            match flags {
                [] => {}
                [f, name] if f == "--hello" => hello = Some(name.clone()),
                _ => return Err(usage("usage: ridl client <addr> [--hello NAME]")),
            }
            let mut client = ridl_server::Client::connect(addr)
                .map_err(|e| CliError::Input(format!("connecting to {addr}: {e}")))?;
            if let Some(name) = hello {
                let r = client
                    .hello(&name)
                    .map_err(|e| CliError::Input(format!("hello: {e}")))?;
                println!("{r}");
            }
            // Scriptable mode: one request line in from stdin, one response
            // line out — ids are the caller's responsibility.
            let stdin = std::io::stdin();
            let mut line = String::new();
            loop {
                line.clear();
                match stdin.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) => return Err(CliError::Input(format!("reading stdin: {e}"))),
                }
                if line.trim().is_empty() {
                    continue;
                }
                let r = client
                    .send_raw(line.trim())
                    .map_err(|e| CliError::Input(format!("request failed: {e}")))?;
                println!("{r}");
            }
            Ok(())
        }
        other => Err(usage(&format!("unknown command {other}"))),
    }
}

fn main() -> ExitCode {
    ridl_obs::init_tracing_from_env();
    // The flight recorder dumps on panic (to RIDL_JOURNAL_JSONL when set,
    // a stderr tail otherwise) — installed before any durability code runs.
    ridl_obs::journal::install_panic_hook();
    let code = match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ridl: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    };
    // Under RIDL_TRACE_JSON, flush any spans not already exported by a
    // subcommand; under RIDL_JOURNAL_JSONL, leave a final flight-recorder
    // dump.
    ridl_obs::write_chrome_trace_env();
    ridl_obs::journal::dump_env();
    code
}
