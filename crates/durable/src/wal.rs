//! Write-ahead log framing: length-prefixed, CRC32-checksummed records
//! with explicit commit markers.
//!
//! ```text
//! file   := magic frame*            magic = "RIDLWAL1" (8 bytes)
//! frame  := len:u32le crc:u32le payload   crc over payload only
//! payload:= 0x01 epoch:u64le fingerprint:u64le        (header)
//!         | 0x02 table:u32le row                      (insert op)
//!         | 0x03 table:u32le row                      (remove op)
//!         | 0x04 0x01                                 (commit marker)
//! row    := ncells:u32le cell*
//! cell   := 0x00 | 0x01 len:u32le token-bytes
//! ```
//!
//! The **commit marker** is the durability point: recovery replays op
//! frames only up to the last valid commit marker. Its second byte is
//! always written as `1`; a legacy `0` (a unit whose constraint check was
//! once deferred) decodes as a plain committed unit, and recovery
//! validates it like any other. [`scan_wal`] is
//! total — torn, short, or bit-flipped tails never error, they just end
//! the committed region and are counted as discarded bytes.

use ridl_relational::{DeltaOp, Row, TableId};

use crate::crc::crc32;
use crate::token::{decode_value, encode_value};

/// First 8 bytes of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"RIDLWAL1";

/// Frames larger than this are treated as corruption (a torn length
/// prefix would otherwise make the scanner wait for gigabytes).
pub const MAX_FRAME: u32 = 1 << 28;

const KIND_HEADER: u8 = 0x01;
const KIND_INSERT: u8 = 0x02;
const KIND_REMOVE: u8 = 0x03;
const KIND_COMMIT: u8 = 0x04;

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn get_u32(b: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?))
}

pub(crate) fn get_u64(b: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
}

pub(crate) fn encode_row_bytes(out: &mut Vec<u8>, row: &Row) {
    put_u32(out, row.len() as u32);
    for cell in row {
        match cell {
            None => out.push(0x00),
            Some(v) => {
                out.push(0x01);
                let tok = encode_value(v);
                put_u32(out, tok.len() as u32);
                out.extend_from_slice(tok.as_bytes());
            }
        }
    }
}

pub(crate) fn decode_row_bytes(b: &[u8], at: &mut usize) -> Option<Row> {
    let n = get_u32(b, *at)? as usize;
    *at += 4;
    if n > b.len() {
        return None;
    }
    // Each cell costs at least one payload byte, so the bytes remaining
    // bound the plausible cell count: a crafted CRC-valid frame claiming
    // ~2^28 cells must abort on its first missing cell, not allocate
    // gigabytes up front.
    let mut row = Row::with_capacity(n.min(b.len() - *at));
    for _ in 0..n {
        match *b.get(*at)? {
            0x00 => {
                *at += 1;
                row.push(None);
            }
            0x01 => {
                *at += 1;
                let len = get_u32(b, *at)? as usize;
                *at += 4;
                let tok = b.get(*at..*at + len)?;
                *at += len;
                let tok = std::str::from_utf8(tok).ok()?;
                row.push(Some(decode_value(tok).ok()?));
            }
            _ => return None,
        }
    }
    Some(row)
}

/// Wraps a payload in a `[len][crc]` frame.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// The bytes of a fresh WAL file: magic plus a header frame binding the
/// epoch (which checkpoint this WAL applies on top of) and the schema
/// fingerprint.
pub fn wal_init_bytes(epoch: u64, fingerprint: u64) -> Vec<u8> {
    let mut payload = vec![KIND_HEADER];
    put_u64(&mut payload, epoch);
    put_u64(&mut payload, fingerprint);
    let mut out = WAL_MAGIC.to_vec();
    out.extend_from_slice(&frame(&payload));
    out
}

/// Encodes one committed unit: every op as its own frame, sealed by a
/// commit marker. Appending this buffer (then fsyncing) is the whole
/// commit protocol — a crash anywhere inside leaves a tail without a
/// valid commit marker, which recovery discards.
pub fn encode_unit(ops: &[DeltaOp]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        let (kind, table, row) = match op {
            DeltaOp::Insert { table, row } => (KIND_INSERT, table, row),
            DeltaOp::Remove { table, row } => (KIND_REMOVE, table, row),
        };
        let mut payload = vec![kind];
        put_u32(&mut payload, table.0);
        encode_row_bytes(&mut payload, row);
        out.extend_from_slice(&frame(&payload));
    }
    let payload = vec![KIND_COMMIT, 1];
    out.extend_from_slice(&frame(&payload));
    out
}

/// One committed unit recovered from the log.
#[derive(Clone, PartialEq, Debug)]
pub struct CommitUnit {
    /// The row operations, in append order.
    pub ops: Vec<DeltaOp>,
}

/// The result of scanning a WAL byte buffer.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct WalScan {
    /// The header, if the magic and header frame were intact.
    pub header: Option<WalHeader>,
    /// Fully committed units, in commit order.
    pub units: Vec<CommitUnit>,
    /// Byte offset just past the last valid commit marker (or past the
    /// header when no unit committed) — the clean append point.
    pub committed_end: u64,
    /// Bytes after `committed_end`: torn frames, ops without a commit
    /// marker, or garbage. Never replayed.
    pub discarded: u64,
}

/// Epoch + fingerprint from a WAL header frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WalHeader {
    /// Checkpoint epoch this log applies on top of.
    pub epoch: u64,
    /// Schema fingerprint at log creation.
    pub fingerprint: u64,
}

/// Scans a WAL buffer. Total: corruption anywhere truncates the
/// committed region instead of failing. A missing/invalid magic or
/// header leaves `header` as `None` with every byte discarded.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut scan = WalScan {
        discarded: bytes.len() as u64,
        ..WalScan::default()
    };
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return scan;
    }
    let mut pos = WAL_MAGIC.len();
    let mut pending: Vec<DeltaOp> = Vec::new();
    while let Some(payload) = next_frame(bytes, &mut pos) {
        let is_first = scan.header.is_none();
        match payload.first() {
            Some(&KIND_HEADER) if is_first => {
                let (Some(epoch), Some(fingerprint)) = (get_u64(payload, 1), get_u64(payload, 9))
                else {
                    break;
                };
                scan.header = Some(WalHeader { epoch, fingerprint });
                scan.committed_end = pos as u64;
            }
            _ if is_first => break, // first frame must be the header
            Some(&kind @ (KIND_INSERT | KIND_REMOVE)) => {
                let Some(table) = get_u32(payload, 1) else {
                    break;
                };
                let mut at = 5usize;
                let Some(row) = decode_row_bytes(payload, &mut at) else {
                    break;
                };
                if at != payload.len() {
                    break; // trailing junk inside the frame
                }
                let table = TableId(table);
                pending.push(if kind == KIND_INSERT {
                    DeltaOp::Insert { table, row }
                } else {
                    DeltaOp::Remove { table, row }
                });
            }
            Some(&KIND_COMMIT) => {
                if payload.len() < 2 {
                    break;
                }
                scan.units.push(CommitUnit {
                    ops: std::mem::take(&mut pending),
                });
                scan.committed_end = pos as u64;
            }
            _ => break,
        }
    }
    scan.discarded = bytes.len() as u64 - scan.committed_end;
    scan
}

/// Reads the frame at `*pos`, advancing past it; `None` on any torn or
/// corrupt framing (short header, oversize length, CRC mismatch).
pub(crate) fn next_frame<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = get_u32(bytes, *pos)?;
    let crc = get_u32(bytes, *pos + 4)?;
    if len > MAX_FRAME {
        return None;
    }
    let start = *pos + 8;
    let payload = bytes.get(start..start + len as usize)?;
    if crc32(payload) != crc {
        return None;
    }
    *pos = start + len as usize;
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ridl_brm::Value;

    fn v(s: &str) -> Option<Value> {
        Some(Value::str(s))
    }

    fn sample_ops() -> Vec<DeltaOp> {
        vec![
            DeltaOp::Insert {
                table: TableId(0),
                row: vec![v("a"), None],
            },
            DeltaOp::Remove {
                table: TableId(1),
                row: vec![Some(Value::Int(-5))],
            },
        ]
    }

    fn sample_wal() -> Vec<u8> {
        let mut wal = wal_init_bytes(2, 0xFEED);
        wal.extend_from_slice(&encode_unit(&sample_ops()));
        wal.extend_from_slice(&encode_unit(&[]));
        wal
    }

    #[test]
    fn clean_wal_roundtrips() {
        let scan = scan_wal(&sample_wal());
        assert_eq!(
            scan.header,
            Some(WalHeader {
                epoch: 2,
                fingerprint: 0xFEED
            })
        );
        assert_eq!(scan.units.len(), 2);
        assert_eq!(scan.units[0].ops, sample_ops());
        assert!(scan.units[1].ops.is_empty());
        assert_eq!(scan.discarded, 0);
        assert_eq!(scan.committed_end, sample_wal().len() as u64);
    }

    #[test]
    fn every_truncation_keeps_a_committed_prefix() {
        let wal = sample_wal();
        let full = scan_wal(&wal);
        for cut in 0..wal.len() {
            let scan = scan_wal(&wal[..cut]);
            assert!(scan.units.len() <= full.units.len());
            for (a, b) in scan.units.iter().zip(full.units.iter()) {
                assert_eq!(a, b, "cut at {cut}: prefix property violated");
            }
            assert_eq!(
                scan.committed_end + scan.discarded,
                cut as u64,
                "cut at {cut}: bytes unaccounted"
            );
        }
    }

    #[test]
    fn ops_without_commit_marker_are_discarded() {
        let mut wal = wal_init_bytes(0, 0);
        let unit = encode_unit(&sample_ops());
        // Drop the trailing commit frame (its length: frame of 2 bytes).
        let commit_len = 8 + 2;
        wal.extend_from_slice(&unit[..unit.len() - commit_len]);
        let scan = scan_wal(&wal);
        assert!(scan.units.is_empty());
        assert_eq!(scan.discarded, (unit.len() - commit_len) as u64);
    }

    /// The marker byte of new units is always `1`; a legacy `0` marker
    /// still seals a committed unit with the same ops.
    #[test]
    fn legacy_zero_marker_decodes_as_a_committed_unit() {
        let unit = encode_unit(&sample_ops());
        assert_eq!(unit[unit.len() - 2..], [KIND_COMMIT, 1]);
        let commit_len = 8 + 2;
        let mut wal = wal_init_bytes(0, 0);
        wal.extend_from_slice(&unit[..unit.len() - commit_len]);
        wal.extend_from_slice(&frame(&[KIND_COMMIT, 0]));
        let scan = scan_wal(&wal);
        assert_eq!(scan.units, vec![CommitUnit { ops: sample_ops() }]);
        assert_eq!(scan.discarded, 0);
    }

    #[test]
    fn bit_flip_truncates_from_the_flipped_frame() {
        let wal = sample_wal();
        // Flip a byte in the second unit's commit frame payload (last 2
        // bytes of the file are the commit payload).
        let mut tampered = wal.clone();
        let n = tampered.len();
        tampered[n - 1] ^= 0x80;
        let scan = scan_wal(&tampered);
        assert_eq!(scan.units.len(), 1, "first unit survives");
        assert!(scan.discarded > 0);
    }

    #[test]
    fn bad_magic_or_header_discards_everything() {
        let scan = scan_wal(b"NOTAWAL!garbage");
        assert!(scan.header.is_none());
        assert_eq!(scan.discarded, 15);
        assert!(scan.units.is_empty());

        // Valid magic, garbage frame.
        let mut wal = WAL_MAGIC.to_vec();
        wal.extend_from_slice(&[0xFF; 20]);
        let scan = scan_wal(&wal);
        assert!(scan.header.is_none());
        assert_eq!(scan.committed_end, 0);
    }

    #[test]
    fn inflated_cell_count_is_corruption_not_allocation() {
        // A CRC-valid insert frame whose row claims far more cells than
        // its payload holds: decoding must abort at the first missing
        // cell (capacity hint bounded by the bytes remaining), and the
        // scanner treats the frame as ending the committed region.
        let mut payload = vec![KIND_INSERT];
        put_u32(&mut payload, 0); // table id
        put_u32(&mut payload, 105); // claims 105 cells (<= payload len)...
        payload.extend_from_slice(&[0x00; 100]); // ...but holds only 100
        let mut wal = wal_init_bytes(0, 0);
        wal.extend_from_slice(&frame(&payload));
        let scan = scan_wal(&wal);
        assert!(scan.units.is_empty());
        assert_eq!(scan.committed_end, wal_init_bytes(0, 0).len() as u64);
        assert!(scan.discarded > 0);
    }

    #[test]
    fn oversize_length_prefix_is_corruption_not_allocation() {
        let mut wal = wal_init_bytes(0, 0);
        wal.extend_from_slice(&(u32::MAX).to_le_bytes());
        wal.extend_from_slice(&[0u8; 12]);
        let scan = scan_wal(&wal);
        assert_eq!(scan.units.len(), 0);
        assert_eq!(scan.committed_end, wal_init_bytes(0, 0).len() as u64);
    }
}
