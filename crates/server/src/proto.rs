//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response per line, each a JSON object. A
//! request carries a client-chosen `id` which the response echoes, so
//! clients may pipeline. The grammar (DESIGN.md §13):
//!
//! ```text
//! request  := {"id": n, "cmd": <cmd>, ...}
//! cmd      := "hello" | "query" | "explain" | "view" | "insert"
//!           | "delete" | "update" | "batch" | "begin" | "commit"
//!           | "rollback" | "status" | "shutdown"
//! response := {"id": n, "ok": true, ...} | {"id": n, "ok": false,
//!              "error": <code>, "detail": "..."}
//! ```
//!
//! Row values encode as JSON scalars where possible (`null` for NULL,
//! strings, integers, booleans) and as tagged one-field objects for the
//! rest: `{"num":[mantissa,scale]}`, `{"date":days}`, `{"entity":id}`.

use ridl_brm::{Decimal, Value};
use ridl_engine::{BatchOp, EngineError, Pred, Query};
use ridl_relational::Row;

use crate::json::{obj, parse, Json};

/// Machine-readable error codes carried in failed responses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorCode {
    /// Malformed request (bad JSON, missing/ill-typed fields).
    Proto,
    /// Unknown table/column/view.
    Unknown,
    /// Ambiguous column reference.
    Ambiguous,
    /// Constraint violation; the statement was rolled back.
    Constraint,
    /// Transaction misuse (commit/rollback without begin, nested begin).
    Txn,
    /// Admission control turned the connection away: the server already
    /// holds `max_sessions` sessions. Sent once, before the close.
    Busy,
    /// The server is shutting down.
    Shutdown,
    /// A durability failure.
    Io,
    /// Anything else.
    Internal,
}

impl ErrorCode {
    /// The code's wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Proto => "proto",
            ErrorCode::Unknown => "unknown",
            ErrorCode::Ambiguous => "ambiguous",
            ErrorCode::Constraint => "constraint",
            ErrorCode::Txn => "txn",
            ErrorCode::Busy => "busy",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Io => "io",
            ErrorCode::Internal => "internal",
        }
    }

    /// Maps an engine error onto a wire code.
    pub fn of(e: &EngineError) -> Self {
        match e {
            EngineError::Unknown(_) => ErrorCode::Unknown,
            EngineError::Ambiguous(_) => ErrorCode::Ambiguous,
            EngineError::ConstraintViolation(_) => ErrorCode::Constraint,
            EngineError::NoTransaction => ErrorCode::Txn,
            EngineError::Io(_) | EngineError::WalPoisoned => ErrorCode::Io,
            _ => ErrorCode::Internal,
        }
    }
}

/// A write operation a session submits to the commit pipeline. `update`
/// carries resolved assignments as owned strings (the engine API takes
/// `&str` pairs; the pipeline re-borrows them at execution time).
#[derive(Clone, PartialEq, Debug)]
pub enum WriteOp {
    /// `insert` — one row.
    Insert {
        /// Target table.
        table: String,
        /// The row.
        row: Row,
    },
    /// `delete` — all rows matching the predicates.
    Delete {
        /// Target table.
        table: String,
        /// Conjunctive predicates.
        preds: Vec<Pred>,
    },
    /// `update` — set columns on all rows matching the predicates.
    Update {
        /// Target table.
        table: String,
        /// Conjunctive predicates.
        preds: Vec<Pred>,
        /// `(column, new value)` assignments.
        sets: Vec<(String, Option<Value>)>,
    },
    /// `batch` — a group of inserts/deletes validated as one statement.
    Batch {
        /// The operations.
        ops: Vec<BatchOp>,
    },
}

/// A parsed request.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// `hello` — handshake; the response describes the schema.
    Hello {
        /// Optional client self-identification.
        client: Option<String>,
    },
    /// `query` — run a select against the session's snapshot.
    Query(Query),
    /// `explain` — run a query, returning the executed plan.
    Explain(Query),
    /// `view` — run a named view against the session's snapshot.
    View {
        /// View name.
        name: String,
    },
    /// A write ([`WriteOp`]): outside a transaction it commits through
    /// the pipeline; inside one it buffers until `commit`.
    Write(WriteOp),
    /// `begin` — start buffering writes into a server-side transaction.
    Begin,
    /// `commit` — submit the buffered writes as one atomic unit.
    Commit,
    /// `rollback` — discard the buffered writes.
    Rollback,
    /// `status` — server counters and snapshot version.
    Status,
    /// `shutdown` — ask the server to shut down cleanly.
    Shutdown,
}

/// Parses one request line. `Err` carries `(code, detail)` for the error
/// response.
pub fn parse_request(line: &str) -> Result<(i64, Request), (ErrorCode, String)> {
    let v = parse(line).map_err(|e| (ErrorCode::Proto, format!("bad JSON: {e}")))?;
    let id = v.get("id").and_then(Json::as_i64).unwrap_or(0);
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or((ErrorCode::Proto, "missing cmd".to_string()))?;
    let req = match cmd {
        "hello" => Request::Hello {
            client: v.get("client").and_then(Json::as_str).map(str::to_owned),
        },
        "query" => Request::Query(decode_query(&v).map_err(|d| (ErrorCode::Proto, d))?),
        "explain" => Request::Explain(decode_query(&v).map_err(|d| (ErrorCode::Proto, d))?),
        "view" => Request::View {
            name: req_str(&v, "name").map_err(|d| (ErrorCode::Proto, d))?,
        },
        "insert" => Request::Write(WriteOp::Insert {
            table: req_str(&v, "table").map_err(|d| (ErrorCode::Proto, d))?,
            row: decode_row(v.get("row")).map_err(|d| (ErrorCode::Proto, d))?,
        }),
        "delete" => Request::Write(WriteOp::Delete {
            table: req_str(&v, "table").map_err(|d| (ErrorCode::Proto, d))?,
            preds: decode_preds(v.get("where")).map_err(|d| (ErrorCode::Proto, d))?,
        }),
        "update" => Request::Write(WriteOp::Update {
            table: req_str(&v, "table").map_err(|d| (ErrorCode::Proto, d))?,
            preds: decode_preds(v.get("where")).map_err(|d| (ErrorCode::Proto, d))?,
            sets: decode_sets(v.get("set")).map_err(|d| (ErrorCode::Proto, d))?,
        }),
        "batch" => Request::Write(WriteOp::Batch {
            ops: decode_batch(v.get("ops")).map_err(|d| (ErrorCode::Proto, d))?,
        }),
        "begin" => Request::Begin,
        "commit" => Request::Commit,
        "rollback" => Request::Rollback,
        "status" => Request::Status,
        "shutdown" => Request::Shutdown,
        other => return Err((ErrorCode::Proto, format!("unknown cmd '{other}'"))),
    };
    Ok((id, req))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn decode_query(v: &Json) -> Result<Query, String> {
    let mut q = Query::from(req_str(v, "table")?);
    if let Some(sel) = v.get("select") {
        let items = sel.as_arr().ok_or("'select' must be an array")?;
        q.select = items
            .iter()
            .map(|c| {
                c.as_str()
                    .map(str::to_owned)
                    .ok_or("select items must be strings")
            })
            .collect::<Result<_, _>>()
            .map_err(str::to_owned)?;
    }
    q.filter = decode_preds(v.get("where"))?;
    if let Some(joins) = v.get("joins") {
        for j in joins.as_arr().ok_or("'joins' must be an array")? {
            let table = req_str(j, "table")?;
            let mut on = Vec::new();
            for pair in j
                .get("on")
                .and_then(Json::as_arr)
                .ok_or("join needs an 'on' array")?
            {
                match pair.as_arr() {
                    Some([l, r]) => match (l.as_str(), r.as_str()) {
                        (Some(l), Some(r)) => on.push((l.to_owned(), r.to_owned())),
                        _ => return Err("join 'on' pairs must be strings".into()),
                    },
                    _ => return Err("join 'on' must be [left,right] pairs".into()),
                }
            }
            q.joins.push(ridl_engine::query::Join { table, on });
        }
    }
    Ok(q)
}

fn decode_preds(v: Option<&Json>) -> Result<Vec<Pred>, String> {
    let Some(v) = v else {
        return Ok(Vec::new());
    };
    let mut preds = Vec::new();
    for p in v.as_arr().ok_or("'where' must be an array")? {
        let col = req_str(p, "col")?;
        if let Some(eq) = p.get("eq") {
            preds.push(Pred::Eq(
                col,
                decode_value(eq)?.ok_or("'eq' cannot be null; use is_null")?,
            ));
        } else if p.get("is_null").and_then(Json::as_bool) == Some(true) {
            preds.push(Pred::IsNull(col));
        } else if p.get("not_null").and_then(Json::as_bool) == Some(true) {
            preds.push(Pred::NotNull(col));
        } else {
            return Err("predicate needs 'eq', 'is_null' or 'not_null'".into());
        }
    }
    Ok(preds)
}

fn decode_sets(v: Option<&Json>) -> Result<Vec<(String, Option<Value>)>, String> {
    let mut sets = Vec::new();
    for pair in v
        .and_then(Json::as_arr)
        .ok_or("update needs a 'set' array")?
    {
        match pair.as_arr() {
            Some([col, val]) => sets.push((
                col.as_str()
                    .ok_or("set column must be a string")?
                    .to_owned(),
                decode_value(val)?,
            )),
            _ => return Err("'set' items must be [column, value] pairs".into()),
        }
    }
    if sets.is_empty() {
        return Err("'set' must not be empty".into());
    }
    Ok(sets)
}

fn decode_batch(v: Option<&Json>) -> Result<Vec<BatchOp>, String> {
    let mut ops = Vec::new();
    for op in v
        .and_then(Json::as_arr)
        .ok_or("batch needs an 'ops' array")?
    {
        let table = req_str(op, "table")?;
        let row = decode_row(op.get("row"))?;
        match op.get("op").and_then(Json::as_str) {
            Some("insert") => ops.push(BatchOp::insert(table, row)),
            Some("delete") => ops.push(BatchOp::delete(table, row)),
            _ => return Err("batch op must be 'insert' or 'delete'".into()),
        }
    }
    Ok(ops)
}

/// Decodes a row: an array of wire values.
pub fn decode_row(v: Option<&Json>) -> Result<Row, String> {
    v.and_then(Json::as_arr)
        .ok_or("missing 'row' array")?
        .iter()
        .map(decode_value)
        .collect()
}

/// Decodes one wire value (`None` = SQL NULL).
pub fn decode_value(v: &Json) -> Result<Option<Value>, String> {
    Ok(Some(match v {
        Json::Null => return Ok(None),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Int(n) => Value::Int(*n),
        Json::Bool(b) => Value::Bool(*b),
        Json::Float(_) => return Err("floats are not row values; use {\"num\":[m,s]}".into()),
        Json::Obj(_) => {
            if let Some(n) = v.get("num").and_then(Json::as_arr) {
                match n {
                    [Json::Int(m), Json::Int(s)] if (0..=255).contains(s) => {
                        Value::Num(Decimal::new(*m, *s as u8))
                    }
                    _ => return Err("'num' must be [mantissa, scale 0..=255]".into()),
                }
            } else if let Some(d) = v.get("date").and_then(Json::as_i64) {
                Value::Date(i32::try_from(d).map_err(|_| "date out of range".to_string())?)
            } else if let Some(e) = v.get("entity").and_then(Json::as_i64) {
                Value::entity(u64::try_from(e).map_err(|_| "entity out of range".to_string())?)
            } else {
                return Err("unknown tagged value object".into());
            }
        }
        Json::Arr(_) => return Err("arrays are not row values".into()),
    }))
}

/// Encodes one cell for the wire (inverse of [`decode_value`]).
pub fn encode_value(v: &Option<Value>) -> Json {
    match v {
        None => Json::Null,
        Some(Value::Str(s)) => Json::str(s.clone()),
        Some(Value::Int(n)) => Json::Int(*n),
        Some(Value::Bool(b)) => Json::Bool(*b),
        Some(Value::Num(d)) => obj([(
            "num",
            Json::Arr(vec![Json::Int(d.mantissa), Json::Int(i64::from(d.scale))]),
        )]),
        Some(Value::Date(d)) => obj([("date", Json::Int(i64::from(*d)))]),
        Some(Value::Entity(e)) => {
            obj([("entity", Json::Int(i64::try_from(e.0).unwrap_or(i64::MAX)))])
        }
    }
}

/// Encodes a result row set.
pub fn encode_rows(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(encode_value).collect()))
            .collect(),
    )
}

/// A successful response line with extra payload fields.
pub fn ok_response(id: i64, extra: impl IntoIterator<Item = (&'static str, Json)>) -> String {
    let mut fields = vec![("id", Json::Int(id)), ("ok", Json::Bool(true))];
    fields.extend(extra);
    obj(fields).to_string()
}

/// A failed response line.
pub fn err_response(id: i64, code: ErrorCode, detail: &str) -> String {
    obj([
        ("id", Json::Int(id)),
        ("ok", Json::Bool(false)),
        ("error", Json::str(code.name())),
        ("detail", Json::str(detail)),
    ])
    .to_string()
}

/// A failed response from an engine error.
pub fn engine_err_response(id: i64, e: &EngineError) -> String {
    err_response(id, ErrorCode::of(e), &e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_command_set() {
        let (id, req) = parse_request(r#"{"id":1,"cmd":"hello","client":"t"}"#).unwrap();
        assert_eq!(id, 1);
        assert_eq!(
            req,
            Request::Hello {
                client: Some("t".into())
            }
        );
        let (_, req) = parse_request(
            r#"{"id":2,"cmd":"query","table":"T","select":["a"],"where":[{"col":"a","eq":"x"},{"col":"b","is_null":true}],"joins":[{"table":"U","on":[["a","b"]]}]}"#,
        )
        .unwrap();
        match req {
            Request::Query(q) => {
                assert_eq!(q.table, "T");
                assert_eq!(q.select, vec!["a"]);
                assert_eq!(q.filter.len(), 2);
                assert_eq!(q.joins.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        let (_, req) =
            parse_request(r#"{"id":3,"cmd":"insert","table":"T","row":["x",null,7]}"#).unwrap();
        assert_eq!(
            req,
            Request::Write(WriteOp::Insert {
                table: "T".into(),
                row: vec![Some(Value::str("x")), None, Some(Value::Int(7))],
            })
        );
        let (_, req) = parse_request(
            r#"{"id":4,"cmd":"update","table":"T","where":[{"col":"a","not_null":true}],"set":[["b",null],["c",5]]}"#,
        )
        .unwrap();
        match req {
            Request::Write(WriteOp::Update { sets, .. }) => assert_eq!(sets.len(), 2),
            other => panic!("{other:?}"),
        }
        let (_, req) = parse_request(
            r#"{"id":5,"cmd":"batch","ops":[{"op":"insert","table":"T","row":["x"]},{"op":"delete","table":"T","row":["y"]}]}"#,
        )
        .unwrap();
        match req {
            Request::Write(WriteOp::Batch { ops }) => assert_eq!(ops.len(), 2),
            other => panic!("{other:?}"),
        }
        for (cmd, want) in [
            ("begin", Request::Begin),
            ("commit", Request::Commit),
            ("rollback", Request::Rollback),
            ("status", Request::Status),
            ("shutdown", Request::Shutdown),
        ] {
            let (_, req) = parse_request(&format!(r#"{{"id":9,"cmd":"{cmd}"}}"#)).unwrap();
            assert_eq!(req, want);
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            "not json",
            r#"{"id":1}"#,
            r#"{"id":1,"cmd":"nope"}"#,
            r#"{"id":1,"cmd":"insert","table":"T"}"#,
            r#"{"id":1,"cmd":"insert","table":"T","row":"x"}"#,
            r#"{"id":1,"cmd":"update","table":"T","set":[]}"#,
            r#"{"id":1,"cmd":"query"}"#,
            r#"{"id":1,"cmd":"delete","table":"T","where":[{"col":"a"}]}"#,
            r#"{"id":1,"cmd":"insert","table":"T","row":[3.5]}"#,
        ] {
            let err = parse_request(line);
            assert!(
                matches!(err, Err((ErrorCode::Proto, _))),
                "{line} should be a proto error, got {err:?}"
            );
        }
    }

    #[test]
    fn values_roundtrip_through_the_wire_encoding() {
        let cells: Vec<Option<Value>> = vec![
            None,
            Some(Value::str("x")),
            Some(Value::Int(-3)),
            Some(Value::Bool(true)),
            Some(Value::Num(Decimal::new(1234, 2))),
            Some(Value::Date(-7)),
            Some(Value::entity(42)),
        ];
        for cell in &cells {
            let wire = encode_value(cell).to_string();
            let back = decode_value(&parse(&wire).unwrap()).unwrap();
            assert_eq!(&back, cell, "roundtrip of {wire}");
        }
    }

    #[test]
    fn responses_carry_id_ok_and_error_codes() {
        let ok = ok_response(7, [("n", Json::Int(3))]);
        let v = parse(&ok).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_i64), Some(7));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(3));
        let err = err_response(8, ErrorCode::Busy, "queue full");
        let v = parse(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("busy"));
    }
}
