//! Satellite of the durability PR: the textual codecs the meta-database
//! and the durable layer share are **total** and **stable**.
//!
//! For every codec (value tokens, constraint bodies, data types) three
//! properties are checked:
//!
//! 1. **Round trip** — decode(encode(x)) == x.
//! 2. **Fixpoint** — re-encoding the decoded form reproduces the exact
//!    byte string, so tokens written by one session are byte-stable
//!    under rewrite by the next.
//! 3. **Totality under truncation/corruption** — a torn prefix or a
//!    flipped byte is *rejected with an error*, never a panic, and never
//!    decodes to a silently different artefact (a truncated input that
//!    happens to decode must itself be stable).

use proptest::prelude::*;

use ridl_brm::{
    ConstraintKind, DataType, Decimal, FactTypeId, ObjectTypeId, RoleOrSublink, RoleRef, Side,
    SublinkId, Value,
};
use ridl_metadb::serde as mdb;

// ---- strategies (ASCII strings so every byte prefix is valid UTF-8) ----

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[ -~]{0,12}".prop_map(Value::Str),
        any::<i64>().prop_map(Value::Int),
        (any::<i64>(), 0u8..6).prop_map(|(m, s)| Value::Num(Decimal::new(m, s))),
        any::<i32>().prop_map(Value::Date),
        any::<bool>().prop_map(Value::Bool),
        (0u64..1000).prop_map(Value::entity),
    ]
}

fn role_strategy() -> impl Strategy<Value = RoleRef> {
    (0u32..50, any::<bool>()).prop_map(|(f, s)| {
        RoleRef::new(
            FactTypeId::from_raw(f),
            if s { Side::Left } else { Side::Right },
        )
    })
}

fn item_strategy() -> impl Strategy<Value = RoleOrSublink> {
    prop_oneof![
        role_strategy().prop_map(RoleOrSublink::Role),
        (0u32..20).prop_map(|s| RoleOrSublink::Sublink(SublinkId::from_raw(s))),
    ]
}

fn constraint_strategy() -> impl Strategy<Value = ConstraintKind> {
    prop_oneof![
        prop::collection::vec(role_strategy(), 1..4)
            .prop_map(|roles| ConstraintKind::Uniqueness { roles }),
        (0u32..30, prop::collection::vec(item_strategy(), 1..4)).prop_map(|(o, items)| {
            ConstraintKind::Total {
                over: ObjectTypeId::from_raw(o),
                items,
            }
        }),
        prop::collection::vec(item_strategy(), 2..5)
            .prop_map(|items| ConstraintKind::Exclusion { items }),
        (
            prop::collection::vec(role_strategy(), 1..3),
            prop::collection::vec(role_strategy(), 1..3)
        )
            .prop_map(|(sub, sup)| ConstraintKind::Subset { sub, sup }),
        (
            prop::collection::vec(role_strategy(), 1..3),
            prop::collection::vec(role_strategy(), 1..3)
        )
            .prop_map(|(a, b)| ConstraintKind::Equality { a, b }),
        (role_strategy(), 0u32..5, proptest::option::of(5u32..10))
            .prop_map(|(role, min, max)| ConstraintKind::Cardinality { role, min, max }),
        (0u32..30, prop::collection::vec(value_strategy(), 0..5)).prop_map(|(o, values)| {
            ConstraintKind::Value {
                over: ObjectTypeId::from_raw(o),
                values,
            }
        }),
    ]
}

fn data_type_strategy() -> impl Strategy<Value = DataType> {
    prop_oneof![
        (0u16..500).prop_map(DataType::Char),
        (0u16..500).prop_map(DataType::VarChar),
        (1u8..30, 0u8..10).prop_map(|(p, s)| DataType::Numeric(p, s)),
        Just(DataType::Integer),
        Just(DataType::Real),
        Just(DataType::Date),
        Just(DataType::Boolean),
        Just(DataType::Surrogate),
    ]
}

/// Largest char-boundary index ≤ `i` (so arbitrary cut points stay valid
/// UTF-8 even if a workload value smuggles multibyte text in).
fn floor_boundary(s: &str, mut i: usize) -> usize {
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

proptest! {
    /// Value tokens: round trip, byte-stable fixpoint, and total under
    /// truncation — a torn token errs or is itself a stable token.
    #[test]
    fn value_token_fixpoint(v in value_strategy(), cut in 0usize..1000) {
        let enc = mdb::encode_value(&v);
        let dec = mdb::decode_value(&enc).unwrap();
        prop_assert_eq!(&dec, &v);
        prop_assert_eq!(mdb::encode_value(&dec), enc.clone(), "encode not a fixpoint");

        let cut = floor_boundary(&enc, cut % (enc.len() + 1));
        let torn = &enc[..cut];
        if let Ok(v2) = mdb::decode_value(torn) {
            let renc = mdb::encode_value(&v2);
            prop_assert_eq!(
                mdb::decode_value(&renc).unwrap(),
                v2,
                "torn token decoded to an unstable value"
            );
        }
    }

    /// Constraint bodies: round trip, byte-stable fixpoint, truncation
    /// totality.
    #[test]
    fn constraint_body_fixpoint(kind in constraint_strategy(), cut in 0usize..10_000) {
        let enc = mdb::encode_constraint(&kind);
        let dec = mdb::decode_constraint(&enc).unwrap_or_else(|e| panic!("{enc}: {e}"));
        prop_assert_eq!(&dec, &kind, "{}", enc);
        prop_assert_eq!(mdb::encode_constraint(&dec), enc.clone(), "encode not a fixpoint");

        let cut = floor_boundary(&enc, cut % (enc.len() + 1));
        let torn = &enc[..cut];
        if let Ok(k2) = mdb::decode_constraint(torn) {
            let renc = mdb::encode_constraint(&k2);
            prop_assert_eq!(
                mdb::decode_constraint(&renc).unwrap(),
                k2,
                "torn body decoded to an unstable constraint"
            );
        }
    }

    /// Data types: `Display` → `parse_data_type` is a bijection, and the
    /// parser is total on truncated renderings.
    #[test]
    fn data_type_display_roundtrip(dt in data_type_strategy(), cut in 0usize..100) {
        let text = dt.to_string();
        prop_assert_eq!(mdb::parse_data_type(&text).unwrap(), dt);
        let torn = &text[..cut % (text.len() + 1)];
        if let Ok(d2) = mdb::parse_data_type(torn) {
            prop_assert_eq!(mdb::parse_data_type(&d2.to_string()).unwrap(), d2);
        }
    }

    /// The parsers never panic on arbitrary printable garbage.
    #[test]
    fn codecs_are_total_on_garbage(src in "\\PC{0,60}") {
        let _ = mdb::decode_value(&src);
        let _ = mdb::decode_constraint(&src);
        let _ = mdb::parse_data_type(&src);
    }
}

/// Deterministic regressions: the exact inputs that used to panic or
/// misparse.
#[test]
fn empty_and_stub_inputs_rejected() {
    assert!(mdb::decode_value("").is_err());
    assert!(mdb::decode_value("N123").is_err(), "mantissa without scale");
    assert!(mdb::decode_value("é").is_err(), "non-ASCII tag");
    assert!(mdb::decode_constraint("").is_err());
    assert!(mdb::parse_data_type("").is_err());
    assert!(mdb::parse_data_type("CHAR(").is_err());
}
