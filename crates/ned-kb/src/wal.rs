//! Append-only write-ahead log of [`KbMutation`] records.
//!
//! The WAL is the durability half of the incremental KB (DESIGN.md §15):
//! every mutation the emerging-entity loop wants to make is appended here
//! *before* it is merged into a [`crate::delta::DeltaKb`] epoch, so a
//! crash between promotion and compaction loses nothing — reopening the
//! log replays the surviving prefix into the same epoch.
//!
//! ## Format
//!
//! The file shares the framing discipline of snapshot v3
//! ([`crate::snapshot`]):
//!
//! ```text
//! header: magic "AIDAWL" (6) + format version u16 LE (2)
//! frame:  tag u8 (1) + body length u64 LE (8) + FNV-1a checksum u64 LE (8)
//! body:   codec-encoded { seq: u64, mutation: KbMutation }
//! ```
//!
//! Records carry explicit sequence numbers so replay is **idempotent**: a
//! crash between a write and its acknowledgement may duplicate an append,
//! and replay skips any record whose sequence number it has already passed.
//!
//! ## Recovery contract
//!
//! - A **torn tail** (truncated header, prelude, or body at end-of-file) is
//!   not an error: replay recovers every complete record before it and
//!   [`Wal::open`] truncates the file back to that valid prefix.
//! - A **checksum mismatch**, **unknown frame tag**, **sequence gap**, or
//!   **undecodable body** anywhere is unrecoverable corruption and yields
//!   the matching typed [`WalError`] — never a panic, never silently wrong
//!   mutations.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ned_core::{NedError, WalError};
use ned_obs::{names, Counter, Metrics};
use serde::{Deserialize, Serialize};

use crate::mutation::{KbMutation, WireMutation};
use crate::snapshot::{decode, encode, fnv1a};

/// Magic bytes identifying a knowledge-base WAL.
const MAGIC: &[u8; 6] = b"AIDAWL";

/// Current WAL format version.
pub const WAL_FORMAT_VERSION: u16 = 1;

/// Header layout: magic (6) + version u16 (2), little-endian.
const HEADER_LEN: usize = 8;

/// Frame prelude: tag u8 (1) + body length u64 (8) + FNV-1a checksum u64
/// (8), little-endian — the same shape as a snapshot v3 section frame.
const FRAME_PRELUDE_LEN: usize = 17;

/// The only frame tag of format version 1: one mutation record.
const TAG_RECORD: u8 = 1;

/// One framed WAL body: a sequence number plus the mutation it carries
/// (in its flat wire form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WalRecord {
    seq: u64,
    mutation: WireMutation,
}

/// Outcome of replaying a WAL byte stream.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// The recovered mutations, in sequence order, deduplicated.
    pub mutations: Vec<KbMutation>,
    /// Complete records observed (including skipped duplicates).
    pub records: u64,
    /// Duplicate appends skipped by sequence number (crash-recovery
    /// idempotence).
    pub duplicates_skipped: u64,
    /// Length in bytes of the valid prefix (header + complete records).
    pub valid_len: u64,
    /// Bytes of torn tail discarded after the valid prefix (0 for a clean
    /// log).
    pub torn_tail_bytes: u64,
}

impl WalReplay {
    /// Sequence number the next append should carry.
    pub fn next_seq(&self) -> u64 {
        self.mutations.len() as u64
    }

    /// True when a torn tail was discarded during recovery.
    pub fn recovered_torn_tail(&self) -> bool {
        self.torn_tail_bytes > 0
    }
}

/// The 8-byte header a fresh WAL starts with.
fn header_bytes() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..6].copy_from_slice(MAGIC); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    h[6..8].copy_from_slice(&WAL_FORMAT_VERSION.to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    h
}

/// Replays a WAL byte stream into its mutation sequence.
///
/// Pure over the bytes: no file is touched, which is what the
/// fault-injection suite drives. See the module docs for the recovery
/// contract (torn tail → recovered prefix; corruption → typed error).
// ned-lint: entry — WAL replay is a recovery root, reachable from any
// binary that opens a log rather than only via the serving/bench mains.
pub fn replay(bytes: &[u8]) -> Result<WalReplay, NedError> {
    let mut out = WalReplay::default();
    if bytes.is_empty() {
        // A file that never got its header written: a fresh log.
        return Ok(out);
    }
    let header = header_bytes();
    if bytes.len() < HEADER_LEN {
        // Shorter than the header: a torn header write if the bytes agree
        // with the header prefix, some other file if they do not.
        if header.starts_with(bytes) {
            out.torn_tail_bytes = bytes.len() as u64;
            return Ok(out);
        }
        return Err(WalError::BadMagic.into());
    }
    if !bytes.starts_with(MAGIC) {
        return Err(WalError::BadMagic.into());
    }
    // ned-lint: allow(p1) — length checked ≥ HEADER_LEN above
    let version = u16::from_le_bytes([bytes[6], bytes[7]]);
    if version != WAL_FORMAT_VERSION {
        return Err(WalError::UnsupportedVersion {
            found: version,
            supported: WAL_FORMAT_VERSION,
        }
        .into());
    }

    let mut pos = HEADER_LEN;
    out.valid_len = pos as u64;
    let mut next_seq = 0u64;
    while pos < bytes.len() {
        let rest = bytes.get(pos..).unwrap_or(&[]);
        if rest.len() < FRAME_PRELUDE_LEN {
            // Torn prelude at end-of-file: recover the prefix.
            break;
        }
        let Some(&tag) = rest.first() else { break };
        if tag != TAG_RECORD {
            return Err(WalError::UnknownFrameTag { tag }.into());
        }
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&rest[1..9]); // ned-lint: allow(p1) — length checked ≥ FRAME_PRELUDE_LEN above
        let body_len = u64::from_le_bytes(len_bytes) as usize;
        let mut sum_bytes = [0u8; 8];
        sum_bytes.copy_from_slice(&rest[9..17]); // ned-lint: allow(p1) — length checked ≥ FRAME_PRELUDE_LEN above
        let expected_sum = u64::from_le_bytes(sum_bytes);
        let body_start = FRAME_PRELUDE_LEN;
        let Some(body_end) = body_start.checked_add(body_len) else {
            // A length this absurd cannot be a real frame; with the file
            // ending inside it, it is indistinguishable from a torn write.
            break;
        };
        if rest.len() < body_end {
            // Torn body at end-of-file: recover the prefix.
            break;
        }
        let body = &rest[body_start..body_end]; // ned-lint: allow(p1) — bounds checked above
        let actual_sum = fnv1a(body);
        if actual_sum != expected_sum {
            return Err(WalError::ChecksumMismatch {
                offset: pos as u64,
                expected: expected_sum,
                actual: actual_sum,
            }
            .into());
        }
        let record: WalRecord = decode(body).map_err(|e| WalError::Codec {
            offset: pos as u64,
            message: e.to_string(),
        })?;
        out.records += 1;
        match record.seq.cmp(&next_seq) {
            std::cmp::Ordering::Less => out.duplicates_skipped += 1,
            std::cmp::Ordering::Equal => {
                out.mutations.push(KbMutation::from(record.mutation));
                next_seq += 1;
            }
            std::cmp::Ordering::Greater => {
                return Err(WalError::SequenceGap { expected: next_seq, found: record.seq }
                    .into());
            }
        }
        pos = match pos.checked_add(body_end) {
            Some(p) => p,
            None => break,
        };
        out.valid_len = pos as u64;
    }
    out.torn_tail_bytes = bytes.len() as u64 - out.valid_len;
    Ok(out)
}

/// Encodes one record into its framed byte form.
fn frame_record(seq: u64, mutation: &KbMutation) -> Result<Vec<u8>, NedError> {
    let body = encode(&WalRecord { seq, mutation: WireMutation::from(mutation) })
        .map_err(|e| WalError::Codec { offset: 0, message: e.to_string() })?;
    let mut frame = Vec::with_capacity(FRAME_PRELUDE_LEN + body.len());
    frame.push(TAG_RECORD);
    frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
    frame.extend_from_slice(&fnv1a(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    Ok(frame)
}

/// An open, appendable write-ahead log.
///
/// [`Wal::open`] replays (and, after a crash, repairs) the existing file;
/// [`Wal::append`] frames and flushes one mutation. Metered through
/// `ned-obs` when constructed with [`Wal::open_observed`]:
/// `kb_wal_records` counts records appended *and* replayed,
/// `kb_wal_replays` counts replay passes.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    records: Counter,
}

impl Wal {
    /// Opens (creating if absent) the WAL at `path`, replaying any existing
    /// records. A torn tail from a previous crash is truncated away so the
    /// next append lands on a clean frame boundary. Returns the open log
    /// and the replay outcome.
    pub fn open(path: impl AsRef<Path>) -> Result<(Wal, WalReplay), NedError> {
        Self::open_observed(path, &Metrics::disabled())
    }

    /// [`Wal::open`], metered: bumps `kb_wal_replays` once and
    /// `kb_wal_records` by the number of records replayed.
    pub fn open_observed(
        path: impl AsRef<Path>,
        metrics: &Metrics,
    ) -> Result<(Wal, WalReplay), NedError> {
        let path = path.as_ref().to_path_buf();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(NedError::io(format!("reading WAL {}", path.display()), e)),
        };
        let replay = replay(&bytes)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| NedError::io(format!("opening WAL {}", path.display()), e))?;
        if replay.valid_len < HEADER_LEN as u64 {
            // Fresh (or torn-header) log: start it over with a clean header.
            file.set_len(0)
                .and_then(|()| file.write_all(&header_bytes()))
                .map_err(|e| NedError::io(format!("initializing WAL {}", path.display()), e))?;
        } else if replay.recovered_torn_tail() {
            file.set_len(replay.valid_len)
                .map_err(|e| NedError::io(format!("repairing WAL {}", path.display()), e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| NedError::io(format!("seeking WAL {}", path.display()), e))?;
        metrics.counter(names::KB_WAL_REPLAYS).inc();
        let records = metrics.counter(names::KB_WAL_RECORDS);
        records.add(replay.records);
        let wal = Wal { file, path, next_seq: replay.next_seq(), records };
        Ok((wal, replay))
    }

    /// Appends one mutation, flushing it to the OS before returning.
    /// Returns the record's sequence number.
    pub fn append(&mut self, mutation: &KbMutation) -> Result<u64, NedError> {
        let seq = self.next_seq;
        let frame = frame_record(seq, mutation)?;
        self.file
            .write_all(&frame)
            .and_then(|()| self.file.flush())
            .map_err(|e| NedError::io(format!("appending to WAL {}", self.path.display()), e))?;
        self.next_seq += 1;
        self.records.inc();
        Ok(seq)
    }

    /// Sequence number the next append will carry (= records applied so
    /// far).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The file path this log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityKind;

    fn sample_mutations() -> Vec<KbMutation> {
        vec![
            KbMutation::AddEntity { canonical_name: "Prism (program)".into(), kind: EntityKind::Other },
            KbMutation::AddDictionarySurface {
                entity: "Prism (program)".into(),
                surface: "PRISM".into(),
                count: 4,
            },
            KbMutation::AddKeyphrase {
                entity: "Prism (program)".into(),
                surface: "mass surveillance".into(),
                count: 2,
            },
        ]
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ned-kb-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let path = temp_path("roundtrip.wal");
        let _ = std::fs::remove_file(&path);
        let muts = sample_mutations();
        {
            let (mut wal, replay) = Wal::open(&path).unwrap();
            assert_eq!(replay.records, 0);
            for (i, m) in muts.iter().enumerate() {
                assert_eq!(wal.append(m).unwrap(), i as u64);
            }
        }
        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.mutations, muts);
        assert_eq!(replay.records, 3);
        assert_eq!(replay.duplicates_skipped, 0);
        assert!(!replay.recovered_torn_tail());
        assert_eq!(wal.next_seq(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_recovered_and_truncated() {
        let path = temp_path("torn.wal");
        let _ = std::fs::remove_file(&path);
        let muts = sample_mutations();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for m in &muts {
                wal.append(m).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        // Cut the file mid-way through the last frame.
        let cut = full.len() - 5;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (mut wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.mutations, muts[..2]);
        assert!(replay.recovered_torn_tail());
        assert_eq!(wal.next_seq(), 2);
        // The torn bytes are gone: a fresh append must produce a clean log.
        wal.append(&muts[2]).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.mutations, muts);
        assert!(!replay.recovered_torn_tail());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_in_body_yields_checksum_error() {
        let path = temp_path("flip.wal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for m in sample_mutations() {
                wal.append(&m).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the first record body (past header+prelude).
        let pos = HEADER_LEN + FRAME_PRELUDE_LEN + 2;
        bytes[pos] ^= 0x20;
        let err = replay(&bytes).unwrap_err();
        assert!(
            matches!(err, NedError::Wal(WalError::ChecksumMismatch { .. })),
            "got {err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_appends_replay_idempotently() {
        let muts = sample_mutations();
        let mut bytes = header_bytes().to_vec();
        // Record 0, record 1, then record 1 again (crash between write and
        // ack), then record 2.
        bytes.extend_from_slice(&frame_record(0, &muts[0]).unwrap());
        bytes.extend_from_slice(&frame_record(1, &muts[1]).unwrap());
        bytes.extend_from_slice(&frame_record(1, &muts[1]).unwrap());
        bytes.extend_from_slice(&frame_record(2, &muts[2]).unwrap());
        let replay = replay(&bytes).unwrap();
        assert_eq!(replay.mutations, muts);
        assert_eq!(replay.records, 4);
        assert_eq!(replay.duplicates_skipped, 1);
    }

    #[test]
    fn sequence_gap_is_a_hard_error() {
        let muts = sample_mutations();
        let mut bytes = header_bytes().to_vec();
        bytes.extend_from_slice(&frame_record(0, &muts[0]).unwrap());
        bytes.extend_from_slice(&frame_record(2, &muts[2]).unwrap());
        let err = replay(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                NedError::Wal(WalError::SequenceGap { expected: 1, found: 2 })
            ),
            "got {err}"
        );
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let err = replay(b"SNAPSHOT????????").unwrap_err();
        assert!(matches!(err, NedError::Wal(WalError::BadMagic)), "got {err}");
        let mut bytes = header_bytes().to_vec();
        bytes[6..8].copy_from_slice(&9u16.to_le_bytes());
        let err = replay(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                NedError::Wal(WalError::UnsupportedVersion { found: 9, supported: 1 })
            ),
            "got {err}"
        );
        let mut bytes = header_bytes().to_vec();
        bytes.push(0x42);
        bytes.extend_from_slice(&[0u8; FRAME_PRELUDE_LEN]);
        let err = replay(&bytes).unwrap_err();
        assert!(
            matches!(err, NedError::Wal(WalError::UnknownFrameTag { tag: 0x42 })),
            "got {err}"
        );
    }

    #[test]
    fn empty_and_torn_header_recover_to_fresh_log() {
        assert_eq!(replay(&[]).unwrap().mutations.len(), 0);
        let torn = &header_bytes()[..3];
        let r = replay(torn).unwrap();
        assert!(r.mutations.is_empty());
        assert!(r.recovered_torn_tail());
    }

    #[test]
    fn open_observed_meters_replays_and_records() {
        let path = temp_path("metered.wal");
        let _ = std::fs::remove_file(&path);
        let metrics = Metrics::new();
        {
            let (mut wal, _) = Wal::open_observed(&path, &metrics).unwrap();
            for m in sample_mutations() {
                wal.append(&m).unwrap();
            }
        }
        assert_eq!(metrics.counter_value(names::KB_WAL_REPLAYS), 1);
        assert_eq!(metrics.counter_value(names::KB_WAL_RECORDS), 3);
        let (_, _) = Wal::open_observed(&path, &metrics).unwrap();
        assert_eq!(metrics.counter_value(names::KB_WAL_REPLAYS), 2);
        // 3 appended + 3 replayed.
        assert_eq!(metrics.counter_value(names::KB_WAL_RECORDS), 6);
        std::fs::remove_file(&path).unwrap();
    }
}
