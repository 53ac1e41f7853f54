//! End-to-end tests for the multi-session server: wire protocol
//! round-trips, admission control, in-order pipelining, and the
//! server-level snapshot-isolation guarantees.

use ridl_brm::DataType;
use ridl_engine::Database;
use ridl_relational::{Column, RelConstraintKind, RelSchema, Table};
use ridl_server::json::{obj, Json};
use ridl_server::{Client, Server, ServerConfig, MAX_LINE_BYTES, MAX_TXN_OPS};

fn sample_schema() -> RelSchema {
    let mut s = RelSchema::new("conf");
    let d = s.domain("D", DataType::Char(24));
    let paper = s.add_table(Table::new(
        "Paper",
        vec![
            Column::not_null("Paper_Id", d),
            Column::nullable("Program_Id", d),
        ],
    ));
    s.add_named(RelConstraintKind::PrimaryKey {
        table: paper,
        cols: vec![0],
    });
    s
}

fn start(cfg: ServerConfig) -> Server {
    let db = Database::create(sample_schema()).unwrap();
    Server::start(db, "127.0.0.1:0", cfg).unwrap()
}

fn insert_req(key: &str) -> Json {
    obj([
        ("cmd", Json::str("insert")),
        ("table", Json::str("Paper")),
        ("row", Json::Arr(vec![Json::str(key), Json::Null])),
    ])
}

fn query_all() -> Json {
    obj([("cmd", Json::str("query")), ("table", Json::str("Paper"))])
}

fn point_query(key: &str) -> Json {
    obj([
        ("cmd", Json::str("query")),
        ("table", Json::str("Paper")),
        (
            "where",
            Json::Arr(vec![obj([
                ("col", Json::str("Paper_Id")),
                ("eq", Json::str(key)),
            ])]),
        ),
    ])
}

#[test]
fn protocol_round_trips_the_full_command_set() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    let hello = c.hello("protocol-test").unwrap();
    assert!(Client::is_ok(&hello), "{hello}");
    assert_eq!(hello.get("schema").and_then(Json::as_str), Some("conf"));
    let tables = hello.get("tables").and_then(Json::as_arr).unwrap();
    assert_eq!(
        tables.iter().filter_map(Json::as_str).collect::<Vec<_>>(),
        ["Paper"]
    );

    // Autocommit insert: the response carries a commit sequence number.
    let r = c.request(insert_req("P1")).unwrap();
    assert!(Client::is_ok(&r), "{r}");
    assert_eq!(r.get("seq").and_then(Json::as_i64), Some(1));
    assert_eq!(r.get("changed").and_then(Json::as_i64), Some(1));

    // Read-your-writes: the next query must see the acknowledged insert.
    let r = c.request(query_all()).unwrap();
    assert_eq!(r.get("rows").and_then(Json::as_arr).unwrap().len(), 1);

    // A primary-key duplicate maps to the `constraint` error code and
    // leaves the store untouched.
    let r = c.request(insert_req("P1")).unwrap();
    assert!(!Client::is_ok(&r));
    assert_eq!(Client::error_code(&r), Some("constraint"));

    // Unknown table maps to `unknown`.
    let r = c
        .request(obj([
            ("cmd", Json::str("query")),
            ("table", Json::str("Nope")),
        ]))
        .unwrap();
    assert_eq!(Client::error_code(&r), Some("unknown"));

    // Malformed line maps to `proto` without killing the session.
    let r = c.send_raw("this is not json").unwrap();
    assert_eq!(Client::error_code(&r), Some("proto"));

    // update / delete round-trip.
    let r = c
        .request(obj([
            ("cmd", Json::str("update")),
            ("table", Json::str("Paper")),
            (
                "where",
                Json::Arr(vec![obj([
                    ("col", Json::str("Paper_Id")),
                    ("eq", Json::str("P1")),
                ])]),
            ),
            (
                "set",
                Json::Arr(vec![Json::Arr(vec![
                    Json::str("Program_Id"),
                    Json::str("G1"),
                ])]),
            ),
        ]))
        .unwrap();
    assert!(Client::is_ok(&r), "{r}");
    assert_eq!(r.get("changed").and_then(Json::as_i64), Some(1));

    // explain returns the executed plan.
    let r = c
        .request(obj([
            ("cmd", Json::str("explain")),
            ("table", Json::str("Paper")),
        ]))
        .unwrap();
    assert!(Client::is_ok(&r), "{r}");
    assert!(!r.get("steps").and_then(Json::as_arr).unwrap().is_empty());

    // Transactions: begin buffers, rollback drops, commit applies all.
    assert!(Client::is_ok(&c.command("begin").unwrap()));
    let r = c.request(insert_req("TX1")).unwrap();
    assert_eq!(r.get("buffered").and_then(Json::as_bool), Some(true));
    let r = c.command("rollback").unwrap();
    assert_eq!(r.get("dropped").and_then(Json::as_i64), Some(1));
    assert!(Client::is_ok(&c.command("begin").unwrap()));
    c.request(insert_req("TX2")).unwrap();
    c.request(insert_req("TX3")).unwrap();
    let r = c.command("commit").unwrap();
    assert!(Client::is_ok(&r), "{r}");
    assert_eq!(r.get("changed").and_then(Json::as_i64), Some(2));
    // Transaction misuse maps to `txn`.
    assert_eq!(
        Client::error_code(&c.command("commit").unwrap()),
        Some("txn")
    );

    // A transaction that violates a constraint rolls back atomically.
    assert!(Client::is_ok(&c.command("begin").unwrap()));
    c.request(insert_req("TX4")).unwrap();
    c.request(insert_req("TX2")).unwrap(); // dup, will fail at commit
    let r = c.command("commit").unwrap();
    assert_eq!(Client::error_code(&r), Some("constraint"));

    let r = c.command("status").unwrap();
    assert!(Client::is_ok(&r), "{r}");
    assert_eq!(r.get("rows").and_then(Json::as_i64), Some(3));
    assert_eq!(r.get("sessions").and_then(Json::as_i64), Some(1));

    drop(c);
    let db = server.shutdown().unwrap();
    assert_eq!(db.state().num_rows(), 3); // P1, TX2, TX3 — TX4 rolled back
}

#[test]
fn admission_control_rejects_past_the_session_limit() {
    let server = start(ServerConfig { max_sessions: 1 });
    let addr = server.addr().to_string();
    let mut c1 = Client::connect(&addr).unwrap();
    assert!(Client::is_ok(&c1.hello("first").unwrap()));

    // The second connection is answered with one proactive busy line and
    // closed — read it without writing anything.
    {
        use std::io::BufRead;
        let s = std::net::TcpStream::connect(&addr).unwrap();
        let mut line = String::new();
        std::io::BufReader::new(s).read_line(&mut line).unwrap();
        let r = ridl_server::json::parse(line.trim()).unwrap();
        assert_eq!(Client::error_code(&r), Some("busy"), "{r}");
    }

    // The admitted session keeps working.
    assert!(Client::is_ok(&c1.request(insert_req("P1")).unwrap()));

    // Once the first session leaves, a new one is admitted. A probe that
    // loses the race (rejected connection reset mid-handshake) retries.
    drop(c1);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let mut c3 = Client::connect(&addr).unwrap();
        if let Ok(r) = c3.hello("third") {
            if Client::is_ok(&r) {
                break;
            }
        }
        assert!(std::time::Instant::now() < deadline, "slot never freed");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    server.shutdown().unwrap();

    // An admission wave: more simultaneous connections than the limit.
    // Admitted sessions hold their slot until every connection has an
    // outcome, so at most `LIMIT` get in and each of the others is turned
    // away with a clean busy line (or, when the server closes first, a
    // reset).
    const LIMIT: usize = 8;
    const WAVE: usize = LIMIT + 8;
    let server = start(ServerConfig {
        max_sessions: LIMIT,
    });
    let addr = server.addr().to_string();
    let start_line = std::sync::Arc::new(std::sync::Barrier::new(WAVE));
    let hold = std::sync::Arc::new(std::sync::Barrier::new(WAVE));
    let wave: Vec<_> = (0..WAVE)
        .map(|_| {
            let (addr, start_line, hold) = (addr.clone(), start_line.clone(), hold.clone());
            std::thread::spawn(move || {
                start_line.wait();
                let admitted = match Client::connect(&addr) {
                    Err(_) => None,
                    Ok(mut c) => match c.hello("wave") {
                        Ok(r) if Client::is_ok(&r) => Some(c),
                        Ok(r) => {
                            assert_eq!(Client::error_code(&r), Some("busy"), "{r}");
                            None
                        }
                        Err(_) => None,
                    },
                };
                hold.wait();
                admitted.is_some()
            })
        })
        .collect();
    let admitted = wave
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|&a| a)
        .count();
    assert!(
        (1..=LIMIT).contains(&admitted),
        "{admitted} of {WAVE} wave connections admitted past a limit of {LIMIT}"
    );
    server.shutdown().unwrap();
}

/// Satellite: server-level snapshot isolation. A long open transaction in
/// one session never blocks — and is never visible to — readers in other
/// sessions until its commit is durable.
#[test]
fn open_transaction_is_invisible_and_nonblocking_to_readers() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    let mut writer = Client::connect(&addr).unwrap();
    let mut reader = Client::connect(&addr).unwrap();

    assert!(Client::is_ok(&writer.request(insert_req("BASE")).unwrap()));
    assert!(Client::is_ok(&writer.command("begin").unwrap()));
    for i in 0..20 {
        writer.request(insert_req(&format!("TX{i}"))).unwrap();
    }
    // The transaction is open and buffered; readers still see one row,
    // and every read completes (nothing is blocked on the writer).
    for _ in 0..10 {
        let r = reader.request(query_all()).unwrap();
        assert_eq!(r.get("rows").and_then(Json::as_arr).unwrap().len(), 1);
    }
    assert!(Client::is_ok(&writer.command("commit").unwrap()));
    let r = reader.request(query_all()).unwrap();
    assert_eq!(r.get("rows").and_then(Json::as_arr).unwrap().len(), 21);
    drop(writer);
    drop(reader);
    server.shutdown().unwrap();
}

/// Satellite: a reader's observed state is always a committed prefix —
/// under a concurrent write burst every query sees a consistent version
/// (never a torn batch), and versions advance monotonically per session.
#[test]
fn reads_see_monotonic_committed_versions_under_write_burst() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    const WRITES: usize = 200;

    let w_addr = addr.clone();
    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(&w_addr).unwrap();
        for i in 0..WRITES {
            let r = c.request(insert_req(&format!("W{i:04}"))).unwrap();
            assert!(Client::is_ok(&r), "{r}");
        }
    });

    let mut reader = Client::connect(&addr).unwrap();
    let mut last_version = -1i64;
    let mut last_rows = 0usize;
    loop {
        let r = reader.request(query_all()).unwrap();
        assert!(Client::is_ok(&r), "{r}");
        let version = r.get("version").and_then(Json::as_i64).unwrap();
        let rows = r.get("rows").and_then(Json::as_arr).unwrap().len();
        // Snapshots only advance: version and row count are monotonic,
        // and the row count can never exceed the committed version.
        assert!(version >= last_version, "version went backwards");
        assert!(rows >= last_rows, "row count went backwards");
        assert!(rows <= version.max(0) as usize, "read a non-durable row");
        last_version = version;
        last_rows = rows;
        if rows == WRITES {
            break;
        }
    }
    writer.join().unwrap();
    server.shutdown().unwrap();
}

/// Concurrent writers funnel through the commit pipeline: every write is
/// acknowledged with a unique sequence number and the final state holds
/// exactly the acknowledged rows. Even threads keep one session; odd
/// threads open a short-lived session per write (connect → hello →
/// insert → point query → disconnect). Every write is then visible to
/// its own session's read, and on each thread commit sequences increase
/// and read versions never go back.
#[test]
fn concurrent_writers_get_unique_commit_sequences() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    const THREADS: usize = 8;
    const PER_THREAD: usize = 25;

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut long_lived = None;
                let mut seqs: Vec<i64> = Vec::new();
                let mut last_version = -1i64;
                for i in 0..PER_THREAD {
                    let mut short_lived;
                    let c = if t % 2 == 0 {
                        long_lived.get_or_insert_with(|| Client::connect(&addr).unwrap())
                    } else {
                        short_lived = Client::connect(&addr).unwrap();
                        assert!(Client::is_ok(&short_lived.hello("short-lived").unwrap()));
                        &mut short_lived
                    };
                    let key = format!("T{t}-{i}");
                    let r = c.request(insert_req(&key)).unwrap();
                    assert!(Client::is_ok(&r), "{r}");
                    let seq = r.get("seq").and_then(Json::as_i64).unwrap();
                    assert!(seqs.last() < Some(&seq), "commit seq went backwards");
                    seqs.push(seq);

                    let r = c.request(point_query(&key)).unwrap();
                    let rows = r.get("rows").and_then(Json::as_arr).unwrap();
                    assert_eq!(rows.len(), 1, "read-your-writes missed {key}: {r}");
                    let version = r.get("version").and_then(Json::as_i64).unwrap();
                    assert!(
                        version >= seq,
                        "read at version {version} before commit {seq}"
                    );
                    assert!(version >= last_version, "snapshot version went backwards");
                    last_version = version;
                }
                seqs
            })
        })
        .collect();
    let mut all: Vec<i64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    let expect: Vec<i64> = (1..=(THREADS * PER_THREAD) as i64).collect();
    assert_eq!(all, expect, "commit sequences must be a dense unique range");

    let db = server.shutdown().unwrap();
    assert_eq!(db.state().num_rows(), THREADS * PER_THREAD);
}

/// A deeply nested request line is a `proto` error, not a stack overflow
/// of the session's reader thread: the connection that sent it and new
/// connections keep being served.
#[test]
fn deeply_nested_request_is_a_proto_error() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let r = c.send_raw(&"[".repeat(100_000)).unwrap();
    assert_eq!(Client::error_code(&r), Some("proto"), "{r}");
    assert!(Client::is_ok(&c.request(insert_req("P1")).unwrap()));

    let mut fresh = Client::connect(&addr).unwrap();
    let r = fresh.request(query_all()).unwrap();
    assert_eq!(r.get("rows").and_then(Json::as_arr).unwrap().len(), 1);
    drop(c);
    drop(fresh);
    server.shutdown().unwrap();
}

/// A request line over the byte cap is a `proto` error and closes the
/// connection; a line at the cap is served, and new connections keep
/// being served.
#[test]
fn overlong_request_line_is_a_proto_error_and_closes_the_connection() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    // Exactly MAX_LINE_BYTES with the newline: still served.
    let req = insert_req("P1").to_string();
    let padded = format!("{req}{}", " ".repeat(MAX_LINE_BYTES - 1 - req.len()));
    assert!(Client::is_ok(&c.send_raw(&padded).unwrap()));
    // One byte more: refused, and the connection closes.
    let r = c.send_raw(&"x".repeat(MAX_LINE_BYTES)).unwrap();
    assert_eq!(Client::error_code(&r), Some("proto"), "{r}");
    assert!(c.request(query_all()).is_err(), "connection stays open");

    let mut fresh = Client::connect(&addr).unwrap();
    let r = fresh.request(query_all()).unwrap();
    assert_eq!(r.get("rows").and_then(Json::as_arr).unwrap().len(), 1);
    drop(fresh);
    server.shutdown().unwrap();
}

/// A write past the buffered-transaction cap is a `proto` error and is
/// not buffered; the transaction stays open and commits what it holds.
#[test]
fn transaction_op_cap_is_a_proto_error() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert!(Client::is_ok(&c.command("begin").unwrap()));
    for i in 0..MAX_TXN_OPS {
        let r = c.request(insert_req(&format!("P{i}"))).unwrap();
        assert!(Client::is_ok(&r), "{r}");
    }
    let r = c.request(insert_req("OVER")).unwrap();
    assert_eq!(Client::error_code(&r), Some("proto"), "{r}");
    let r = c.command("commit").unwrap();
    assert_eq!(
        r.get("changed").and_then(Json::as_i64),
        Some(MAX_TXN_OPS as i64)
    );

    let mut fresh = Client::connect(&addr).unwrap();
    let r = fresh.request(query_all()).unwrap();
    let rows = r.get("rows").and_then(Json::as_arr).unwrap().len();
    assert_eq!(rows, MAX_TXN_OPS);
    drop(c);
    drop(fresh);
    server.shutdown().unwrap();
}

/// A line that is not UTF-8 is a `proto` error; the connection keeps
/// being served.
#[test]
fn non_utf8_request_line_is_a_proto_error() {
    use std::io::{BufRead, BufReader, Write};
    let server = start(ServerConfig::default());
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut read_response = |s: &mut std::net::TcpStream, bytes: &[u8]| {
        s.write_all(bytes).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        ridl_server::json::parse(line.trim()).unwrap()
    };
    let r = read_response(&mut s, b"\xff\xfe{}\n");
    assert_eq!(Client::error_code(&r), Some("proto"), "{r}");
    let r = read_response(&mut s, format!("{}\n", insert_req("P1")).as_bytes());
    assert!(Client::is_ok(&r), "{r}");
    drop(s);
    server.shutdown().unwrap();
}

/// A client that pipelines is served in order: 40 request lines sent in
/// one write, among them one that does not parse and one that is not
/// UTF-8, get 40 responses in request order, each id echoed and `proto`
/// at the two bad positions, and the connection stays open.
#[test]
fn pipelined_requests_are_served_in_order() {
    use std::io::{BufRead, BufReader, Write};
    const LINES: usize = 40;
    // Both bad lines stand where a query would: every insert still runs.
    const UNPARSABLE: usize = 11;
    const NOT_UTF8: usize = 27;
    let server = start(ServerConfig::default());
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut burst = Vec::new();
    for i in 0..LINES {
        match i {
            UNPARSABLE => burst.extend_from_slice(b"this is not json"),
            NOT_UTF8 => burst.extend_from_slice(b"\xff\xfe{}"),
            _ => {
                let mut req = if i % 2 == 0 {
                    insert_req(&format!("P{i}"))
                } else {
                    query_all()
                };
                if let Json::Obj(fields) = &mut req {
                    fields.insert("id".into(), Json::Int(i as i64 + 1));
                }
                burst.extend_from_slice(req.to_string().as_bytes());
            }
        }
        burst.push(b'\n');
    }
    s.write_all(&burst).unwrap();

    let mut read_response = || {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection closed"
        );
        ridl_server::json::parse(line.trim()).unwrap()
    };
    for i in 0..LINES {
        let r = read_response();
        if i == UNPARSABLE || i == NOT_UTF8 {
            assert_eq!(Client::error_code(&r), Some("proto"), "line {i}: {r}");
        } else {
            assert!(Client::is_ok(&r), "line {i}: {r}");
            assert_eq!(
                r.get("id").and_then(Json::as_i64),
                Some(i as i64 + 1),
                "{r}"
            );
        }
    }
    s.write_all(format!("{}\n", query_all()).as_bytes())
        .unwrap();
    let r = read_response();
    let rows = r.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), LINES / 2, "{r}");
    drop(s);
    server.shutdown().unwrap();
}
