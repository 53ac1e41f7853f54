//! The typed value-token codec the WAL and the paged snapshots share with
//! `metadb::serde` (which delegates here, so the meta-database columns
//! and the durability layer speak one format), the durable layer's
//! [`CorruptError`], and the schema fingerprint.

use std::fmt;

use ridl_brm::{Decimal, Value};

/// Errors raised while decoding snapshots, WAL records or value tokens.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CorruptError(pub String);

impl fmt::Display for CorruptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt durable data: {}", self.0)
    }
}

impl std::error::Error for CorruptError {}

/// Encodes a value as a typed token (`S…`, `I…`, `N…/…`, `D…`, `B0|B1`,
/// `E…`).
pub fn encode_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("S{s}"),
        Value::Int(i) => format!("I{i}"),
        Value::Num(d) => format!("N{}/{}", d.mantissa, d.scale),
        Value::Date(d) => format!("D{d}"),
        Value::Bool(b) => format!("B{}", if *b { 1 } else { 0 }),
        Value::Entity(e) => format!("E{}", e.0),
    }
}

/// Decodes a typed value token.
pub fn decode_value(s: &str) -> Result<Value, CorruptError> {
    let err = || CorruptError(format!("value {s}"));
    // One ASCII tag byte; a multibyte first char is corrupt, not a slice
    // panic.
    if s.is_empty() || !s.is_char_boundary(1) {
        return Err(err());
    }
    let (tag, rest) = s.split_at(1);
    Ok(match tag {
        "S" => Value::str(rest),
        "I" => Value::Int(rest.parse().map_err(|_| err())?),
        "N" => {
            let (m, sc) = rest.split_once('/').ok_or_else(err)?;
            Value::Num(Decimal::new(
                m.parse().map_err(|_| err())?,
                sc.parse().map_err(|_| err())?,
            ))
        }
        "D" => Value::Date(rest.parse().map_err(|_| err())?),
        "B" => match rest {
            "1" => Value::Bool(true),
            "0" => Value::Bool(false),
            _ => return Err(err()),
        },
        "E" => Value::entity(rest.parse().map_err(|_| err())?),
        _ => return Err(err()),
    })
}

/// FNV-1a over a string — the schema fingerprint stored in snapshots and
/// WAL headers, guarding a store against being opened under a different
/// schema. (Not stable across builds that change schema `Debug` output;
/// it guards operational mistakes, not archival formats.)
pub fn fingerprint_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
