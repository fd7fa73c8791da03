//! The append-only record log (WAL).
//!
//! A log is a directory of *segment* files named `wal-<start_seq>.log`,
//! where `<start_seq>` is the sequence number of the first record the
//! segment may hold. Each segment starts with an 8-byte magic and then
//! holds length-prefixed, checksummed records:
//!
//! ```text
//! [seq: u64 LE][len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//!
//! Recovery semantics: a scan stops at the first frame that is incomplete
//! or fails its checksum. At the *tail* of the newest segment that is the
//! expected signature of a crash mid-append (a torn record) and is
//! tolerated — the log is truncated back to the last valid frame and
//! appends continue from there. The same signature anywhere else in the
//! committed prefix is reported as corruption by the engine layer.

use crate::crc::crc32;
use crate::error::{Result, StorageError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Segment file magic ("MLNWAL" + format version).
pub const SEGMENT_MAGIC: &[u8; 8] = b"MLNWAL01";

/// Per-record frame overhead: seq (8) + len (4) + crc (4).
pub const FRAME_HEADER_LEN: usize = 16;

/// Upper bound on one record's payload (sanity guard so a corrupted length
/// field cannot drive a multi-gigabyte allocation during replay).
pub const MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

/// One journaled record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Monotonic sequence number (1-based, assigned by the engine).
    pub seq: u64,
    /// Opaque payload — the semantic layer owns the encoding.
    pub payload: Vec<u8>,
}

/// Path of the segment whose first record is `start_seq`.
pub fn segment_path(dir: &Path, start_seq: u64) -> PathBuf {
    dir.join(format!("wal-{start_seq:020}.log"))
}

/// All segments in `dir`, sorted by start sequence.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| StorageError::io(format!("read_dir {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io("read_dir entry", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(stem) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(".log")) {
            if let Ok(start) = stem.parse::<u64>() {
                out.push((start, entry.path()));
            }
        }
    }
    out.sort_by_key(|(start, _)| *start);
    Ok(out)
}

/// The outcome of scanning one segment.
#[derive(Debug)]
pub struct SegmentScan {
    /// Records with valid frames, in file order.
    pub records: Vec<Record>,
    /// Byte offset of the end of the last valid frame (the truncation
    /// point when the tail is torn).
    pub valid_len: u64,
    /// True when bytes exist past `valid_len` (an incomplete or
    /// checksum-failing tail frame).
    pub torn: bool,
}

/// Scan a segment file, tolerating a torn tail.
pub fn read_segment(path: &Path) -> Result<SegmentScan> {
    let mut file =
        File::open(path).map_err(|e| StorageError::io(format!("open {}", path.display()), e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| StorageError::io(format!("read {}", path.display()), e))?;

    if bytes.len() < SEGMENT_MAGIC.len() {
        // A segment torn inside its own header: nothing committed here.
        return Ok(SegmentScan { records: Vec::new(), valid_len: 0, torn: !bytes.is_empty() });
    }
    if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(StorageError::Corrupt(format!("{}: bad segment magic", path.display())));
    }

    let mut records: Vec<Record> = Vec::new();
    let mut pos = SEGMENT_MAGIC.len();
    let mut valid_len = pos as u64;
    loop {
        if pos == bytes.len() {
            return Ok(SegmentScan { records, valid_len, torn: false });
        }
        // Any frame-validation failure is either a crash tear (the process
        // died mid-append, so *nothing* was ever written after it) or
        // in-place damage to a committed record. `tear_or_corrupt`
        // distinguishes them: appends are strictly sequential, so a valid
        // frame carrying the expected *successor* sequence anywhere past
        // the failure point proves the failed frame was committed and then
        // rotted — silently truncating there would discard acknowledged
        // records (budget charges!), so that case surfaces loudly. The
        // scan covers header rot too (a flipped `len` mislocates both the
        // checksum slice and the next frame, which is why the probe
        // searches every offset instead of trusting the damaged header).
        let prev_seq = records.last().map(|r| r.seq);
        if bytes.len() - pos < FRAME_HEADER_LEN {
            return tear_or_corrupt(&bytes, pos, None, prev_seq, path, records, valid_len);
        }
        let seq = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().expect("4 bytes"));
        let body_start = pos + FRAME_HEADER_LEN;
        let body_end = body_start + len as usize;
        if len > MAX_RECORD_LEN
            || body_end > bytes.len()
            || crc32(&bytes[body_start..body_end]) != crc
        {
            return tear_or_corrupt(&bytes, pos, Some(seq), prev_seq, path, records, valid_len);
        }
        // Frames within one segment carry consecutive sequence numbers by
        // construction; a jump means the seq field of a committed record
        // rotted (its checksum covers only the payload).
        if let Some(prev) = prev_seq {
            if seq != prev + 1 {
                return Err(StorageError::Corrupt(format!(
                    "{}: non-consecutive record seq {seq} after {prev}",
                    path.display()
                )));
            }
        }
        records.push(Record { seq, payload: bytes[body_start..body_end].to_vec() });
        pos = body_end;
        valid_len = pos as u64;
    }
}

/// Failure classification for one undecodable frame: a tear (tolerated,
/// scan ends) unless a committed successor frame survives past it, which
/// proves in-place damage (loud corruption). See the comment at the call
/// sites in [`read_segment`].
#[allow(clippy::too_many_arguments)]
fn tear_or_corrupt(
    bytes: &[u8],
    pos: usize,
    claimed_seq: Option<u64>,
    prev_seq: Option<u64>,
    path: &Path,
    records: Vec<Record>,
    valid_len: u64,
) -> Result<SegmentScan> {
    let successors: Vec<u64> =
        [claimed_seq.map(|s| s + 1), prev_seq.map(|s| s + 2)].into_iter().flatten().collect();
    if let Some(seq) = committed_successor(bytes, pos + 1, &successors) {
        return Err(StorageError::Corrupt(format!(
            "{}: damaged committed record before intact seq {seq}",
            path.display()
        )));
    }
    Ok(SegmentScan { records, valid_len, torn: true })
}

/// Search `bytes[from..]` for a checksum-valid frame whose sequence number
/// is one of `candidates`; returns the matched sequence. Runs only on the
/// failure path, so the linear scan costs nothing in normal operation.
fn committed_successor(bytes: &[u8], from: usize, candidates: &[u64]) -> Option<u64> {
    for &want in candidates {
        let pattern = want.to_le_bytes();
        let mut offset = from;
        while offset + FRAME_HEADER_LEN <= bytes.len() {
            match bytes[offset..].windows(8).position(|w| w == pattern) {
                None => break,
                Some(at) => {
                    let frame_pos = offset + at;
                    if frame_at(bytes, frame_pos) == Some(want) {
                        return Some(want);
                    }
                    offset = frame_pos + 1;
                }
            }
        }
    }
    None
}

/// Try to decode one well-formed, checksum-valid frame at `pos`.
fn frame_at(bytes: &[u8], pos: usize) -> Option<u64> {
    if bytes.len().checked_sub(pos)? < FRAME_HEADER_LEN {
        return None;
    }
    let seq = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().expect("4 bytes"));
    // An empty frame is a seq followed by eight zero bytes (the CRC of
    // nothing is 0) — a pattern binary payloads hold routinely, so it
    // proves nothing. Writers never commit one.
    if len == 0 || len > MAX_RECORD_LEN {
        return None;
    }
    let body_start = pos + FRAME_HEADER_LEN;
    let body_end = body_start.checked_add(len as usize)?;
    if body_end > bytes.len() || crc32(&bytes[body_start..body_end]) != crc {
        return None;
    }
    Some(seq)
}

/// Append handle on one segment file.
#[derive(Debug)]
pub struct SegmentWriter {
    path: PathBuf,
    file: File,
    len: u64,
}

impl SegmentWriter {
    /// Create a fresh segment (fails if the file already exists).
    pub fn create(dir: &Path, start_seq: u64) -> Result<Self> {
        let path = segment_path(dir, start_seq);
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| StorageError::io(format!("create {}", path.display()), e))?;
        file.write_all(SEGMENT_MAGIC)
            .map_err(|e| StorageError::io(format!("write magic {}", path.display()), e))?;
        file.sync_all().map_err(|e| StorageError::io(format!("sync {}", path.display()), e))?;
        // Persist the directory entry too, or a power loss could forget
        // the file exists no matter how hard its contents were synced.
        crate::fsutil::fsync_dir(dir)?;
        Ok(SegmentWriter { path, file, len: SEGMENT_MAGIC.len() as u64 })
    }

    /// Re-open an existing segment for appending, truncating any torn tail
    /// back to `valid_len` first. A segment torn inside its own header
    /// (`valid_len` below the magic) is reinitialized from scratch.
    pub fn reopen(path: &Path, valid_len: u64) -> Result<Self> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("reopen {}", path.display()), e))?;
        if valid_len < SEGMENT_MAGIC.len() as u64 {
            file.set_len(0)
                .map_err(|e| StorageError::io(format!("truncate {}", path.display()), e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| StorageError::io(format!("seek {}", path.display()), e))?;
            file.write_all(SEGMENT_MAGIC)
                .map_err(|e| StorageError::io(format!("write magic {}", path.display()), e))?;
            file.sync_all().map_err(|e| StorageError::io(format!("sync {}", path.display()), e))?;
            return Ok(SegmentWriter {
                path: path.to_path_buf(),
                file,
                len: SEGMENT_MAGIC.len() as u64,
            });
        }
        file.set_len(valid_len)
            .map_err(|e| StorageError::io(format!("truncate {}", path.display()), e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| StorageError::io(format!("seek {}", path.display()), e))?;
        Ok(SegmentWriter { path: path.to_path_buf(), file, len: valid_len })
    }

    /// Append one framed record; flushes to the OS, and to disk when
    /// `fsync` is set. Payloads are non-empty (see [`frame_at`]).
    pub fn append(&mut self, seq: u64, payload: &[u8], fsync: bool) -> Result<()> {
        if payload.is_empty() {
            return Err(StorageError::InvalidState("empty record payload".into()));
        }
        if payload.len() as u64 > u64::from(MAX_RECORD_LEN) {
            return Err(StorageError::InvalidState(format!(
                "record of {} bytes exceeds the {MAX_RECORD_LEN}-byte frame limit",
                payload.len()
            )));
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file
            .write_all(&frame)
            .map_err(|e| StorageError::io(format!("append {}", self.path.display()), e))?;
        self.file
            .flush()
            .map_err(|e| StorageError::io(format!("flush {}", self.path.display()), e))?;
        if fsync {
            self.file
                .sync_data()
                .map_err(|e| StorageError::io(format!("fsync {}", self.path.display()), e))?;
        }
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff the segment holds no records (header only).
    pub fn is_empty(&self) -> bool {
        self.len <= SEGMENT_MAGIC.len() as u64
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mileena-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_and_ordering() {
        let dir = tmp_dir("roundtrip");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append(1, b"alpha", false).unwrap();
        w.append(2, b"beta", true).unwrap();
        let scan = read_segment(&segment_path(&dir, 1)).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0], Record { seq: 1, payload: b"alpha".to_vec() });
        assert_eq!(scan.records[1].seq, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_truncatable() {
        let dir = tmp_dir("torn");
        let path = segment_path(&dir, 1);
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append(1, b"keep me", false).unwrap();
        w.append(2, b"the torn one", false).unwrap();
        drop(w);
        // Chop 3 bytes off the final record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let scan = read_segment(&path).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1);
        // Reopen truncates and appends continue cleanly.
        let mut w = SegmentWriter::reopen(&path, scan.valid_len).unwrap();
        w.append(2, b"rewritten", false).unwrap();
        let scan = read_segment(&path).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records[1].payload, b"rewritten");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_payload_holding_an_empty_frame_pattern_is_still_a_tear() {
        // A binary payload can hold the next seq followed by eight zero
        // bytes: an empty, checksum-valid frame. A tear inside it must not
        // read as damage before an intact successor.
        let dir = tmp_dir("empty-frame");
        let path = segment_path(&dir, 1);
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append(1, b"keep me", false).unwrap();
        let mut payload = b"head".to_vec();
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.extend_from_slice(&[0; 8]);
        payload.extend_from_slice(b"tail");
        w.append(2, &payload, false).unwrap();
        assert!(w.append(3, b"", false).is_err(), "empty payloads are never committed");
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let scan = read_segment(&path).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let dir = tmp_dir("crc");
        let path = segment_path(&dir, 1);
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append(1, b"pristine bytes", false).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_segment(&path).unwrap();
        assert!(scan.torn);
        assert!(scan.records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_rot_before_valid_records_is_corruption_not_a_tear() {
        // A checksum failure *followed by a decodable frame* cannot be a
        // crash tear (appends are sequential): silently truncating there
        // would discard the committed records after it.
        let dir = tmp_dir("bitrot");
        let path = segment_path(&dir, 1);
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append(1, b"record one - will rot", false).unwrap();
        w.append(2, b"record two - still committed", false).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of record 1 (header is magic + 16 bytes).
        let target = SEGMENT_MAGIC.len() + FRAME_HEADER_LEN + 3;
        bytes[target] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_segment(&path), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_len_rot_before_valid_records_is_corruption() {
        // A flipped `len` field mislocates both the checksum slice and the
        // next frame; the successor scan must still find the intact
        // committed record behind it and refuse to truncate.
        let dir = tmp_dir("lenrot");
        let path = segment_path(&dir, 1);
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append(1, b"record one", false).unwrap();
        w.append(2, b"record two survives", false).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let len_field = SEGMENT_MAGIC.len() + 8; // record 1's len
        bytes[len_field] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_segment(&path), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_seq_rot_is_corruption() {
        // The payload checksum can't see the seq field; the in-segment
        // consecutiveness check does.
        let dir = tmp_dir("seqrot");
        let path = segment_path(&dir, 1);
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append(1, b"one", false).unwrap();
        w.append(2, b"two", false).unwrap();
        w.append(3, b"three", false).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Record 2 starts after magic + record 1's frame.
        let r2 = SEGMENT_MAGIC.len() + FRAME_HEADER_LEN + b"one".len();
        bytes[r2] ^= 0x04; // seq 2 -> 6
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_segment(&path), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_is_corruption() {
        let dir = tmp_dir("magic");
        let path = segment_path(&dir, 1);
        std::fs::write(&path, b"NOTMAGIC-and-more").unwrap();
        assert!(matches!(read_segment(&path), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_segments_sorted() {
        let dir = tmp_dir("list");
        SegmentWriter::create(&dir, 10).unwrap();
        SegmentWriter::create(&dir, 2).unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        let segments = list_segments(&dir).unwrap();
        let starts: Vec<u64> = segments.iter().map(|(s, _)| *s).collect();
        assert_eq!(starts, vec![2, 10]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
