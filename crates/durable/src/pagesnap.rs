//! Binary paged checkpoint snapshots (format v2).
//!
//! The retired v1 text snapshot re-serialized the whole state on every
//! checkpoint — O(state) exactly when the database is large. v2 extends the WAL's length-prefixed, CRC32-framed row codec
//! ([`crate::wal`]) into a full snapshot format, lays every table out as
//! fixed-size **pages** grouped into **extents**, and supports
//! **delta** files that rewrite only the extents dirtied since the last
//! checkpoint epoch.
//!
//! ```text
//! file    := magic frame*                  magic = "RIDLSNP2" (8 bytes)
//! frame   := len:u32le crc:u32le payload   crc over payload only
//! payload := 0x10 flavor:u8 epoch:u64le fingerprint:u64le
//!                 ntables:u32le (extents:u32le)*ntables      (header)
//!          | 0x11 table:u32le extent:u32le nrows:u32le       (extent)
//!          | 0x12 nrows:u32le row*                           (page)
//!          | 0x13 total_rows:u64le                           (end)
//! row     := ncells:u32le cell*            (the WAL row codec)
//! ```
//!
//! **Extent assignment is content-hashed**, not positional: a row lives
//! in extent `row_extent_hash(row) % num_extents(table)`. A mutation
//! therefore dirties exactly the one extent holding (or about to hold)
//! that row, no matter where the row sorts — positional packing would
//! shift every row after an insert and dirty the whole tail. The same
//! hash runs in the engine's mutation path and in the codec, and
//! [`decode_paged`] re-verifies each row's assignment, so a writer/marker
//! disagreement surfaces as corruption instead of silent data loss.
//!
//! A **base** file carries every extent of every table (empty ones
//! included) in canonical order; a **delta** file carries a sparse,
//! strictly-ordered subset, and each extent it carries **replaces** that
//! extent wholesale (an empty extent frame is an explicit "now empty").
//! The extent-count geometry is frozen at base-write time and repeated in
//! every delta header; [`merge_chain`] refuses mismatched geometries.
//!
//! Every frame is CRC-checked (page corruption is localized to one frame
//! before decoding touches row bytes), the end frame carries the total
//! row count (truncation at a frame boundary is caught), and decoding is
//! strict: unknown frames, out-of-order extents, row-count mismatches,
//! duplicate rows, or trailing bytes are all typed [`CorruptError`]s.

use std::collections::{BTreeMap, BTreeSet};

use ridl_brm::Value;
use ridl_relational::{RelState, Row, TableId};

use crate::token::CorruptError;
use crate::wal::{
    decode_row_bytes, encode_row_bytes, frame, get_u32, get_u64, next_frame, put_u32, put_u64,
};

/// First 8 bytes of every v2 snapshot or delta file.
pub const SNAP2_MAGIC: &[u8; 8] = b"RIDLSNP2";

/// Target rows per extent when sizing a base snapshot's geometry.
pub const ROWS_PER_EXTENT: usize = 128;

/// Target payload bytes per page frame; rows pack greedily until a page
/// crosses this, and one oversized row still gets its own page.
pub const PAGE_BYTES: usize = 4096;

/// Upper bound on extents per table (2^16 extents × 128 rows ≈ 8.4M rows
/// per table before extents simply grow past the target).
pub const MAX_EXTENTS_PER_TABLE: u32 = 1 << 16;

const KIND_SNAP_HEADER: u8 = 0x10;
const KIND_EXTENT: u8 = 0x11;
const KIND_PAGE: u8 = 0x12;
const KIND_SNAP_END: u8 = 0x13;

const FLAVOR_BASE: u8 = 0;
const FLAVOR_DELTA: u8 = 1;

fn bad(what: impl Into<String>) -> CorruptError {
    CorruptError(what.into())
}

/// FNV-1a over a row's cells, allocation-free and independent of the
/// text token encoding. This is the **stable contract** between the
/// engine's dirty-extent marking and the snapshot writer: both sides
/// must place a row in the same extent or incremental checkpoints lose
/// rows (which [`decode_paged`]'s per-row re-verification would surface
/// as corruption at the next recovery).
pub fn row_extent_hash(row: &Row) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for cell in row {
        match cell {
            None => eat(&[0x00]),
            Some(Value::Str(s)) => {
                eat(b"S");
                eat(s.as_bytes());
            }
            Some(Value::Int(i)) => {
                eat(b"I");
                eat(&i.to_le_bytes());
            }
            Some(Value::Num(d)) => {
                eat(b"N");
                eat(&d.mantissa.to_le_bytes());
                eat(&[d.scale]);
            }
            Some(Value::Date(d)) => {
                eat(b"D");
                eat(&d.to_le_bytes());
            }
            Some(Value::Bool(b)) => eat(&[b'B', *b as u8]),
            Some(Value::Entity(e)) => {
                eat(b"E");
                eat(&e.0.to_le_bytes());
            }
        }
        eat(&[0x1f]); // cell separator: ["ab","c"] ≠ ["a","bc"]
    }
    h
}

/// The extent layout of one snapshot chain: how many extents each table
/// is divided into. Frozen when a base snapshot is written; every delta
/// in the chain must agree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExtentGeometry {
    /// Extent count per table (always ≥ 1).
    pub extents: Vec<u32>,
}

impl ExtentGeometry {
    /// Sizes a geometry for `state`: ⌈rows / ROWS_PER_EXTENT⌉ extents per
    /// table, at least one, capped at [`MAX_EXTENTS_PER_TABLE`].
    pub fn for_state(state: &RelState) -> Self {
        let extents = (0..state.num_tables())
            .map(|i| {
                let rows = state.rows(TableId(i as u32)).len();
                (rows.div_ceil(ROWS_PER_EXTENT).max(1) as u32).min(MAX_EXTENTS_PER_TABLE)
            })
            .collect();
        Self { extents }
    }

    /// The extent `row` belongs to within `table`.
    pub fn extent_of(&self, table: usize, row: &Row) -> u32 {
        (row_extent_hash(row) % self.extents[table] as u64) as u32
    }

    /// Number of tables covered.
    pub fn num_tables(&self) -> usize {
        self.extents.len()
    }

    /// Total extents across all tables.
    pub fn total_extents(&self) -> u64 {
        self.extents.iter().map(|e| *e as u64).sum()
    }
}

/// Whether a v2 file is a full base snapshot or an extent delta.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapFlavor {
    /// Carries every extent of every table.
    Base,
    /// Carries only the extents it replaces.
    Delta,
}

/// A decoded v2 file: header fields plus the extents it carries, in file
/// order.
#[derive(Clone, PartialEq, Debug)]
pub struct PagedSnap {
    /// Base or delta.
    pub flavor: SnapFlavor,
    /// Checkpoint epoch this file was written at.
    pub epoch: u64,
    /// Schema fingerprint.
    pub fingerprint: u64,
    /// The chain geometry (repeated in every file of a chain).
    pub geometry: ExtentGeometry,
    /// `(table, extent, rows)` in file order.
    pub extents: Vec<(u32, u32, Vec<Row>)>,
}

/// Size accounting for one encoded snapshot or delta.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SnapStats {
    /// Encoded bytes (magic + frames).
    pub bytes: u64,
    /// Extent frames written.
    pub extents: u64,
    /// Page frames written.
    pub pages: u64,
}

fn header_frame(flavor: u8, epoch: u64, fingerprint: u64, geometry: &ExtentGeometry) -> Vec<u8> {
    let mut payload = vec![KIND_SNAP_HEADER, flavor];
    put_u64(&mut payload, epoch);
    put_u64(&mut payload, fingerprint);
    put_u32(&mut payload, geometry.extents.len() as u32);
    for e in &geometry.extents {
        put_u32(&mut payload, *e);
    }
    frame(&payload)
}

/// Emits one extent: its header frame plus greedily packed page frames.
fn encode_extent(out: &mut Vec<u8>, table: u32, extent: u32, rows: &[&Row], stats: &mut SnapStats) {
    let mut payload = vec![KIND_EXTENT];
    put_u32(&mut payload, table);
    put_u32(&mut payload, extent);
    put_u32(&mut payload, rows.len() as u32);
    out.extend_from_slice(&frame(&payload));
    stats.extents += 1;

    let mut page: Vec<u8> = Vec::new();
    let mut page_rows = 0u32;
    let mut flush = |page: &mut Vec<u8>, page_rows: &mut u32, out: &mut Vec<u8>| {
        if *page_rows > 0 {
            let mut payload = vec![KIND_PAGE];
            put_u32(&mut payload, *page_rows);
            payload.extend_from_slice(page);
            out.extend_from_slice(&frame(&payload));
            stats.pages += 1;
            page.clear();
            *page_rows = 0;
        }
    };
    for row in rows {
        encode_row_bytes(&mut page, row);
        page_rows += 1;
        if page.len() >= PAGE_BYTES {
            flush(&mut page, &mut page_rows, out);
        }
    }
    flush(&mut page, &mut page_rows, out);
}

/// Buckets a table's rows by extent. One pass over the rows; the result
/// indexes row references per extent.
fn bucket_rows<'a>(
    state: &'a RelState,
    table: usize,
    geometry: &ExtentGeometry,
) -> Vec<Vec<&'a Row>> {
    let mut buckets: Vec<Vec<&Row>> = vec![Vec::new(); geometry.extents[table] as usize];
    for row in state.rows(TableId(table as u32)) {
        buckets[geometry.extent_of(table, row) as usize].push(row);
    }
    buckets
}

/// Encodes a full base snapshot of `state`, returning the bytes, the
/// geometry it froze, and size stats.
pub fn encode_base(
    epoch: u64,
    fingerprint: u64,
    state: &RelState,
) -> (Vec<u8>, ExtentGeometry, SnapStats) {
    let geometry = ExtentGeometry::for_state(state);
    let mut out = SNAP2_MAGIC.to_vec();
    let mut stats = SnapStats::default();
    out.extend_from_slice(&header_frame(FLAVOR_BASE, epoch, fingerprint, &geometry));
    let mut total_rows = 0u64;
    for t in 0..state.num_tables() {
        let buckets = bucket_rows(state, t, &geometry);
        for (e, rows) in buckets.iter().enumerate() {
            total_rows += rows.len() as u64;
            encode_extent(&mut out, t as u32, e as u32, rows, &mut stats);
        }
    }
    let mut payload = vec![KIND_SNAP_END];
    put_u64(&mut payload, total_rows);
    out.extend_from_slice(&frame(&payload));
    stats.bytes = out.len() as u64;
    (out, geometry, stats)
}

/// Encodes a delta carrying exactly the `dirty` extents of `state` under
/// a frozen `geometry`. Each carried extent replaces its previous
/// contents wholesale; extents not in `dirty` are untouched by the file.
///
/// Panics if `geometry` does not cover `state`'s tables or a dirty pair
/// is out of range — the engine guards both (a geometry/table mismatch
/// forces a base checkpoint instead).
pub fn encode_delta(
    epoch: u64,
    fingerprint: u64,
    state: &RelState,
    geometry: &ExtentGeometry,
    dirty: &BTreeSet<(u32, u32)>,
) -> (Vec<u8>, SnapStats) {
    assert_eq!(
        geometry.num_tables(),
        state.num_tables(),
        "geometry covers state"
    );
    let mut out = SNAP2_MAGIC.to_vec();
    let mut stats = SnapStats::default();
    out.extend_from_slice(&header_frame(FLAVOR_DELTA, epoch, fingerprint, geometry));
    let mut total_rows = 0u64;
    // One scan per dirtied table, filtering to its dirty extents.
    let mut by_table: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for (t, e) in dirty {
        assert!(*e < geometry.extents[*t as usize], "dirty extent in range");
        by_table.entry(*t).or_default().insert(*e);
    }
    for (t, extents) in &by_table {
        let mut buckets: BTreeMap<u32, Vec<&Row>> =
            extents.iter().map(|e| (*e, Vec::new())).collect();
        for row in state.rows(TableId(*t)) {
            let e = geometry.extent_of(*t as usize, row);
            if let Some(b) = buckets.get_mut(&e) {
                b.push(row);
            }
        }
        for (e, rows) in &buckets {
            total_rows += rows.len() as u64;
            encode_extent(&mut out, *t, *e, rows, &mut stats);
        }
    }
    let mut payload = vec![KIND_SNAP_END];
    put_u64(&mut payload, total_rows);
    out.extend_from_slice(&frame(&payload));
    stats.bytes = out.len() as u64;
    (out, stats)
}

/// Decodes and fully verifies a v2 file (base or delta): magic, per-frame
/// CRCs, header-first/end-last framing, canonical extent order (complete
/// coverage for a base, strictly ascending subset for a delta), per-row
/// extent-assignment re-verification, and the end frame's total row
/// count. Any violation is a typed [`CorruptError`].
pub fn decode_paged(bytes: &[u8]) -> Result<PagedSnap, CorruptError> {
    if bytes.len() < SNAP2_MAGIC.len() || &bytes[..SNAP2_MAGIC.len()] != SNAP2_MAGIC {
        return Err(bad("pagesnap: bad magic"));
    }
    let mut pos = SNAP2_MAGIC.len();

    // Header frame first.
    let payload = next_frame(bytes, &mut pos).ok_or_else(|| bad("pagesnap: torn header frame"))?;
    if payload.first() != Some(&KIND_SNAP_HEADER) {
        return Err(bad("pagesnap: first frame is not a header"));
    }
    let flavor = match payload.get(1) {
        Some(&FLAVOR_BASE) => SnapFlavor::Base,
        Some(&FLAVOR_DELTA) => SnapFlavor::Delta,
        _ => return Err(bad("pagesnap: unknown flavor")),
    };
    let epoch = get_u64(payload, 2).ok_or_else(|| bad("pagesnap: header epoch"))?;
    let fingerprint = get_u64(payload, 10).ok_or_else(|| bad("pagesnap: header fingerprint"))?;
    let ntables = get_u32(payload, 18).ok_or_else(|| bad("pagesnap: header table count"))? as usize;
    if payload.len() != 22 + 4 * ntables {
        return Err(bad("pagesnap: header length mismatch"));
    }
    let mut extents_per_table = Vec::with_capacity(ntables);
    for i in 0..ntables {
        let e = get_u32(payload, 22 + 4 * i).ok_or_else(|| bad("pagesnap: header extents"))?;
        if e == 0 || e > MAX_EXTENTS_PER_TABLE {
            return Err(bad(format!("pagesnap: table {i} has {e} extents")));
        }
        extents_per_table.push(e);
    }
    let geometry = ExtentGeometry {
        extents: extents_per_table,
    };

    // Extent + page frames until the end frame.
    let mut extents: Vec<(u32, u32, Vec<Row>)> = Vec::new();
    let mut open: Option<(u32, u32, usize, Vec<Row>)> = None; // (t, e, want, rows)
    let mut total_rows = 0u64;
    let mut ended = false;
    while !ended {
        let payload =
            next_frame(bytes, &mut pos).ok_or_else(|| bad("pagesnap: torn or missing frame"))?;
        match payload.first() {
            Some(&KIND_EXTENT) => {
                let t = get_u32(payload, 1).ok_or_else(|| bad("pagesnap: extent table"))?;
                let e = get_u32(payload, 5).ok_or_else(|| bad("pagesnap: extent index"))?;
                let n = get_u32(payload, 9).ok_or_else(|| bad("pagesnap: extent rows"))?;
                if payload.len() != 13 {
                    return Err(bad("pagesnap: extent frame length"));
                }
                if (t as usize) >= geometry.num_tables() || e >= geometry.extents[t as usize] {
                    return Err(bad(format!("pagesnap: extent ({t},{e}) out of range")));
                }
                if let Some((pt, pe, want, rows)) = open.take() {
                    if rows.len() != want {
                        return Err(bad(format!(
                            "pagesnap: extent ({pt},{pe}) declared {want} rows, carried {}",
                            rows.len()
                        )));
                    }
                    extents.push((pt, pe, rows));
                }
                if let Some((lt, le, _)) = extents.last() {
                    if (t, e) <= (*lt, *le) {
                        return Err(bad(format!("pagesnap: extent ({t},{e}) out of order")));
                    }
                }
                open = Some((t, e, n as usize, Vec::new()));
            }
            Some(&KIND_PAGE) => {
                let (t, e, want, rows) = open
                    .as_mut()
                    .ok_or_else(|| bad("pagesnap: page before any extent"))?;
                let n = get_u32(payload, 1).ok_or_else(|| bad("pagesnap: page rows"))? as usize;
                let mut at = 5usize;
                for _ in 0..n {
                    let row = decode_row_bytes(payload, &mut at)
                        .ok_or_else(|| bad("pagesnap: row decode"))?;
                    if geometry.extent_of(*t as usize, &row) != *e {
                        return Err(bad(format!(
                            "pagesnap: row hashed outside its extent ({t},{e})"
                        )));
                    }
                    rows.push(row);
                }
                if at != payload.len() {
                    return Err(bad("pagesnap: trailing bytes in page frame"));
                }
                if rows.len() > *want {
                    return Err(bad(format!("pagesnap: extent ({t},{e}) overflows")));
                }
                total_rows += n as u64;
            }
            Some(&KIND_SNAP_END) => {
                let declared = get_u64(payload, 1).ok_or_else(|| bad("pagesnap: end total"))?;
                if payload.len() != 9 {
                    return Err(bad("pagesnap: end frame length"));
                }
                if declared != total_rows {
                    return Err(bad(format!(
                        "pagesnap: end declares {declared} rows, file carries {total_rows}"
                    )));
                }
                ended = true;
            }
            _ => return Err(bad("pagesnap: unknown frame kind")),
        }
    }
    if let Some((pt, pe, want, rows)) = open.take() {
        if rows.len() != want {
            return Err(bad(format!(
                "pagesnap: extent ({pt},{pe}) declared {want} rows, carried {}",
                rows.len()
            )));
        }
        extents.push((pt, pe, rows));
    }
    if pos != bytes.len() {
        return Err(bad("pagesnap: trailing bytes after end frame"));
    }
    if flavor == SnapFlavor::Base {
        // A base must carry every extent of every table exactly once, in
        // canonical order (the ascending-order check above makes "once"
        // free; here we check completeness).
        let want: u64 = geometry.total_extents();
        if extents.len() as u64 != want {
            return Err(bad(format!(
                "pagesnap: base carries {} extents, geometry has {want}",
                extents.len()
            )));
        }
    }
    Ok(PagedSnap {
        flavor,
        epoch,
        fingerprint,
        geometry,
        extents,
    })
}

/// Merges a base and its delta chain into a state. The caller has
/// already verified the chain links (epochs consecutive, fingerprints
/// and geometry equal — [`crate::store::read_store`] does); this
/// re-asserts the structural parts and applies each delta's extents as
/// wholesale replacements, last writer wins.
///
/// The decoded files are consumed: every row moves into the state once,
/// uncloned. Each table's rows are gathered, sorted and bulk-built
/// ([`RelState::from_table_rows`]); a row present twice in a table is a
/// [`CorruptError`].
pub fn merge_chain(base: PagedSnap, deltas: Vec<PagedSnap>) -> Result<RelState, CorruptError> {
    if base.flavor != SnapFlavor::Base {
        return Err(bad("pagesnap: chain must start with a base"));
    }
    let mut layers: BTreeMap<(u32, u32), Vec<Row>> = BTreeMap::new();
    for (t, e, rows) in base.extents {
        layers.insert((t, e), rows);
    }
    for d in deltas {
        if d.flavor != SnapFlavor::Delta {
            return Err(bad("pagesnap: chain tail must be deltas"));
        }
        if d.geometry != base.geometry {
            return Err(bad("pagesnap: delta geometry diverges from base"));
        }
        for (t, e, rows) in d.extents {
            layers.insert((t, e), rows);
        }
    }
    let mut tables: Vec<Vec<Row>> = vec![Vec::new(); base.geometry.num_tables()];
    for ((t, _e), rows) in layers {
        tables[t as usize].extend(rows);
    }
    let (state, dropped) = RelState::from_table_rows(tables);
    match dropped.iter().position(|n| *n > 0) {
        Some(t) => Err(bad(format!("pagesnap: duplicate row in table {t}"))),
        None => Ok(state),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ridl_brm::Decimal;

    fn v(s: &str) -> Option<Value> {
        Some(Value::str(s))
    }

    fn sample_state(rows_per_table: usize) -> RelState {
        let mut st = RelState::with_tables(3);
        for i in 0..rows_per_table {
            st.insert(TableId(0), vec![v(&format!("k{i}")), None]);
            st.insert(
                TableId(2),
                vec![
                    Some(Value::Int(i as i64)),
                    Some(Value::Num(Decimal::new(i as i64 * 7, 2))),
                    Some(Value::Bool(i % 2 == 0)),
                ],
            );
        }
        st
    }

    #[test]
    fn base_roundtrips() {
        let st = sample_state(300);
        let (bytes, geometry, stats) = encode_base(5, 0xFEED, &st);
        assert_eq!(stats.bytes, bytes.len() as u64);
        assert!(stats.pages > 0);
        let dec = decode_paged(&bytes).unwrap();
        assert_eq!(dec.flavor, SnapFlavor::Base);
        assert_eq!(dec.epoch, 5);
        assert_eq!(dec.fingerprint, 0xFEED);
        assert_eq!(dec.geometry, geometry);
        assert_eq!(merge_chain(dec, Vec::new()).unwrap(), st);
        // Idempotent: decoding the same bytes again merges identically.
        assert_eq!(
            merge_chain(decode_paged(&bytes).unwrap(), Vec::new()).unwrap(),
            st
        );
    }

    #[test]
    fn geometry_splits_large_tables() {
        let st = sample_state(ROWS_PER_EXTENT * 3);
        let g = ExtentGeometry::for_state(&st);
        assert!(g.extents[0] >= 3);
        assert_eq!(g.extents[1], 1, "empty table still gets one extent");
    }

    #[test]
    fn delta_replaces_only_dirty_extents() {
        let mut st = sample_state(300);
        let (base_bytes, geometry, _) = encode_base(1, 7, &st);
        let base = decode_paged(&base_bytes).unwrap();

        // Mutate a handful of rows, tracking the extents they hash to —
        // exactly what the engine's dirty marking does.
        let mut dirty = BTreeSet::new();
        for i in 0..5 {
            let old = vec![v(&format!("k{i}")), None];
            let new = vec![v(&format!("k{i}-v2")), None];
            dirty.insert((0u32, geometry.extent_of(0, &old)));
            dirty.insert((0u32, geometry.extent_of(0, &new)));
            assert!(st.remove(TableId(0), &old));
            assert!(st.insert(TableId(0), new));
        }
        let (delta_bytes, stats) = encode_delta(2, 7, &st, &geometry, &dirty);
        assert!(
            (delta_bytes.len() as u64)
                < base.extents.len() as u64 * 100 + base_bytes.len() as u64 / 2,
            "delta much smaller than base"
        );
        assert_eq!(stats.extents, dirty.len() as u64);
        let delta = decode_paged(&delta_bytes).unwrap();
        assert_eq!(delta.flavor, SnapFlavor::Delta);
        assert_eq!(merge_chain(base, vec![delta]).unwrap(), st);
    }

    #[test]
    fn empty_dirty_extent_is_an_explicit_replacement() {
        let mut st = RelState::with_tables(1);
        st.insert(TableId(0), vec![v("only")]);
        let (base_bytes, geometry, _) = encode_base(1, 7, &st);
        let base = decode_paged(&base_bytes).unwrap();
        let e = geometry.extent_of(0, &vec![v("only")]);
        st.remove(TableId(0), &vec![v("only")]);
        let dirty: BTreeSet<_> = [(0u32, e)].into();
        let (delta_bytes, _) = encode_delta(2, 7, &st, &geometry, &dirty);
        let delta = decode_paged(&delta_bytes).unwrap();
        assert_eq!(delta.extents, vec![(0, e, Vec::new())]);
        assert_eq!(merge_chain(base, vec![delta]).unwrap(), st);
    }

    #[test]
    fn chained_deltas_apply_last_writer_wins() {
        let mut st = sample_state(64);
        let (base_bytes, geometry, _) = encode_base(1, 7, &st);
        let base = decode_paged(&base_bytes).unwrap();
        let mut deltas = Vec::new();
        for gen in 0..3 {
            let row = vec![v("hot"), v(&format!("gen{gen}"))];
            let mut dirty = BTreeSet::new();
            if gen > 0 {
                let old = vec![v("hot"), v(&format!("gen{}", gen - 1))];
                dirty.insert((0u32, geometry.extent_of(0, &old)));
                st.remove(TableId(0), &old);
            }
            dirty.insert((0u32, geometry.extent_of(0, &row)));
            st.insert(TableId(0), row);
            let (bytes, _) = encode_delta(2 + gen, 7, &st, &geometry, &dirty);
            deltas.push(decode_paged(&bytes).unwrap());
        }
        assert_eq!(merge_chain(base, deltas).unwrap(), st);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let st = sample_state(40);
        let (bytes, _, _) = encode_base(1, 1, &st);
        for cut in 0..bytes.len() {
            assert!(decode_paged(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let st = sample_state(40);
        let (bytes, _, _) = encode_base(1, 1, &st);
        // Flip one bit in every byte position; each must fail (CRC per
        // frame) or — for flips inside the magic — fail the magic check.
        for pos in 0..bytes.len() {
            let mut t = bytes.clone();
            t[pos] ^= 0x01;
            assert!(decode_paged(&t).is_err(), "flip at {pos} accepted");
        }
    }

    #[test]
    fn mismatched_geometry_refuses_to_merge() {
        let small = sample_state(10);
        let large = sample_state(ROWS_PER_EXTENT * 4);
        let (bb, _, _) = encode_base(1, 7, &large);
        let base = decode_paged(&bb).unwrap();
        let (sb, sg, _) = encode_base(1, 7, &small);
        let _ = decode_paged(&sb).unwrap();
        let (db, _) = encode_delta(2, 7, &small, &sg, &BTreeSet::new());
        let delta = decode_paged(&db).unwrap();
        assert!(merge_chain(base, vec![delta]).is_err());
    }

    #[test]
    fn duplicate_row_in_a_chain_is_corruption() {
        // A CRC-valid base whose one extent carries the same row twice:
        // the frames decode, the merge refuses the set.
        let row = vec![v("twice")];
        let geometry = ExtentGeometry { extents: vec![1] };
        let mut bytes = SNAP2_MAGIC.to_vec();
        bytes.extend_from_slice(&header_frame(FLAVOR_BASE, 1, 7, &geometry));
        encode_extent(&mut bytes, 0, 0, &[&row, &row], &mut SnapStats::default());
        let mut end = vec![KIND_SNAP_END];
        put_u64(&mut end, 2);
        bytes.extend_from_slice(&frame(&end));
        let base = decode_paged(&bytes).unwrap();
        let err = merge_chain(base, Vec::new()).unwrap_err();
        assert!(err.0.contains("duplicate row in table 0"), "{err:?}");
    }

    #[test]
    fn row_hash_distinguishes_cell_boundaries() {
        let a: Row = vec![v("ab"), v("c")];
        let b: Row = vec![v("a"), v("bc")];
        assert_ne!(row_extent_hash(&a), row_extent_hash(&b));
        let c: Row = vec![None, v("x")];
        let d: Row = vec![v(""), v("x")];
        assert_ne!(row_extent_hash(&c), row_extent_hash(&d));
    }
}
