//! The on-disk segment: one append-only, checksummed log file.
//!
//! ```text
//! file   := header record*
//! header := "QWAL" version:u32le            (8 bytes)
//! record := len:u32le crc:u32le payload     (payload[0] is the kind)
//! ```
//!
//! `crc` is the CRC-32 of the payload. On open the file is scanned
//! front to back; the first frame that is short, oversized, or fails
//! its checksum marks the **torn tail** — everything before it is the
//! recovered log and the file is truncated back to that offset (a
//! crash mid-append loses at most the record being written, never an
//! acknowledged one).
//!
//! [`Segment::read`] re-scans the durable prefix `[0, len)` through
//! the open handle, so a caller can fold the log without keeping a
//! copy of it; there, any frame that fails to scan is an error.
//!
//! Compaction writes a full snapshot to `<path>.compact.tmp` and
//! atomically renames it over the live log; a leftover temp file at
//! open is discarded (the crash happened before the swap, so the live
//! log is authoritative).
//!
//! All crash points of [`CrashPoint`](super::CrashPoint) are trip
//! wires in this module: once a [`FaultPlan`] fires, the segment goes
//! **dead** — every later write silently does nothing, modeling the
//! process being gone while the harness keeps executing.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::store::codec::crc32;
use crate::store::fault::{CrashPoint, FaultPlan};
use crate::store::{StoreError, StoreHealth};

const MAGIC: &[u8; 4] = b"QWAL";
const VERSION: u32 = 1;
pub(crate) const HEADER_LEN: u64 = 8;

/// Largest payload `open` will believe; anything bigger is read as a
/// torn/garbage tail. Generous next to real records (a few KB).
const MAX_PAYLOAD: u32 = 64 << 20;

pub(crate) struct Segment {
    path: PathBuf,
    file: File,
    /// Bytes of valid log (header + intact records).
    len: u64,
    health: StoreHealth,
    plan: Option<FaultPlan>,
}

impl Segment {
    /// Open (creating if absent) the segment at `path`, discarding any
    /// leftover compaction temp file and truncating a torn tail.
    /// Returns the segment plus the recovered record payloads.
    pub fn open(
        path: &Path,
        plan: Option<FaultPlan>,
    ) -> Result<(Segment, Vec<Vec<u8>>), StoreError> {
        let tmp = tmp_path(path);
        if tmp.exists() {
            // Crash between snapshot write and rename: the live log is
            // authoritative, the snapshot is garbage.
            std::fs::remove_file(&tmp).map_err(StoreError::Io)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(StoreError::Io)?;
        let file_len = file.metadata().map_err(StoreError::Io)?.len();
        if file_len == 0 {
            file.write_all(&header_bytes()).map_err(StoreError::Io)?;
            file.flush().map_err(StoreError::Io)?;
            let seg = Segment {
                path: path.to_path_buf(),
                file,
                len: HEADER_LEN,
                health: StoreHealth::Alive,
                plan,
            };
            return Ok((seg, Vec::new()));
        }

        let mut bytes = Vec::with_capacity(file_len as usize);
        file.read_to_end(&mut bytes).map_err(StoreError::Io)?;
        let (records, pos) = scan(path, &bytes)?;
        if pos as u64 != file_len {
            // Drop the torn tail so the next append starts on a valid
            // frame boundary.
            file.set_len(pos as u64).map_err(StoreError::Io)?;
        }
        file.seek(SeekFrom::End(0)).map_err(StoreError::Io)?;
        let seg = Segment {
            path: path.to_path_buf(),
            file,
            len: pos as u64,
            health: StoreHealth::Alive,
            plan,
        };
        Ok((seg, records))
    }

    /// Bytes of valid log on disk (as far as this handle knows).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    pub fn health(&self) -> StoreHealth {
        self.health.clone()
    }

    pub fn is_dead(&self) -> bool {
        !matches!(self.health, StoreHealth::Alive)
    }

    fn trip(&mut self, point: CrashPoint) -> bool {
        if self.is_dead() {
            return true;
        }
        if self.plan.as_mut().is_some_and(|p| p.trip(point)) {
            self.health = StoreHealth::FaultInjected(point);
        }
        self.is_dead()
    }

    /// Kill the segment for a real failure (first reason wins).
    pub fn fail(&mut self, reason: impl std::fmt::Display) {
        if matches!(self.health, StoreHealth::Alive) {
            self.health = StoreHealth::Failed(reason.to_string());
        }
    }

    /// Re-read the durable prefix `[0, len)` through this handle and
    /// return its record payloads — what [`Self::open`] of the path
    /// would recover right now. Works on a dead segment too. Bytes
    /// that no longer scan as whole, checksummed frames up to `len`
    /// are an error: the file changed under the handle.
    pub fn read(&mut self) -> Result<Vec<Vec<u8>>, StoreError> {
        let mut bytes = vec![0u8; self.len as usize];
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.read_exact(&mut bytes))
            .and_then(|()| self.file.seek(SeekFrom::Start(self.len)))
            .map_err(StoreError::Io)?;
        match scan(&self.path, &bytes)? {
            (records, end) if end as u64 == self.len => Ok(records),
            (_, end) => Err(StoreError::corrupt(format!(
                "{} changed under its handle at byte {end}",
                self.path.display()
            ))),
        }
    }

    /// Append one record. Write-ahead semantics: when this returns on
    /// a live segment the record is framed, checksummed and flushed.
    /// On a dead segment it is a silent no-op (the "process" is gone).
    pub fn append(&mut self, payload: &[u8]) {
        if self.trip(CrashPoint::AppendStart) {
            return;
        }
        let frame = frame_bytes(payload);
        // Torn-append injection: half the frame reaches the disk.
        let torn = {
            let dying = self
                .plan
                .as_mut()
                .is_some_and(|p| p.trip(CrashPoint::AppendTorn));
            if dying {
                self.health = StoreHealth::FaultInjected(CrashPoint::AppendTorn);
            }
            dying
        };
        let to_write = if torn {
            &frame[..frame.len() / 2]
        } else {
            &frame[..]
        };
        if let Err(e) = self
            .file
            .write_all(to_write)
            .and_then(|()| self.file.flush())
        {
            self.fail(e);
            return;
        }
        if torn {
            return; // dead; self.len stays at the last valid boundary
        }
        self.len += frame.len() as u64;
        self.trip(CrashPoint::AppendDone);
    }

    /// Replace the whole log with `payloads` (a compaction snapshot):
    /// write them to a temp file, fsync, atomically rename over the
    /// live log.
    pub fn rewrite(&mut self, payloads: &[Vec<u8>]) {
        if self.trip(CrashPoint::CompactStart) {
            return;
        }
        let mut bytes = header_bytes().to_vec();
        for p in payloads {
            bytes.extend_from_slice(&frame_bytes(p));
        }
        let tmp = tmp_path(&self.path);
        let torn = {
            let dying = self
                .plan
                .as_mut()
                .is_some_and(|p| p.trip(CrashPoint::CompactTorn));
            if dying {
                self.health = StoreHealth::FaultInjected(CrashPoint::CompactTorn);
            }
            dying
        };
        let to_write = if torn {
            &bytes[..bytes.len() / 2]
        } else {
            &bytes[..]
        };
        let write_tmp = || -> std::io::Result<File> {
            let mut f = File::create(&tmp)?;
            f.write_all(to_write)?;
            f.sync_all()?;
            Ok(f)
        };
        if let Err(e) = write_tmp() {
            self.fail(e);
            return;
        }
        if torn {
            return; // dead with a torn temp file on disk; live log intact
        }
        if self.trip(CrashPoint::CompactWritten) {
            return; // dead with a complete temp file, live log intact
        }
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            self.fail(e);
            return;
        }
        // Reopen our handle on the swapped-in file so later appends
        // land in the compacted log.
        let reopened = OpenOptions::new().read(true).append(true).open(&self.path);
        match reopened {
            Ok(f) => {
                self.file = f;
                self.len = bytes.len() as u64;
            }
            Err(e) => {
                self.fail(e);
                return;
            }
        }
        self.trip(CrashPoint::CompactSwapped);
    }
}

fn header_bytes() -> [u8; 8] {
    let mut h = [0u8; 8];
    h[0..4].copy_from_slice(MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h
}

/// Check the header of a whole log image and collect the payloads of
/// its intact frames. Returns them with the end of the last intact
/// frame: the first short, oversized or checksum-failing frame marks
/// the torn tail.
fn scan(path: &Path, bytes: &[u8]) -> Result<(Vec<Vec<u8>>, usize), StoreError> {
    if bytes.len() < HEADER_LEN as usize || &bytes[0..4] != MAGIC {
        return Err(StoreError::corrupt(format!(
            "{} is not a qurk store (bad magic)",
            path.display()
        )));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != VERSION {
        return Err(StoreError::corrupt(format!(
            "unsupported store version {version} (expected {VERSION})"
        )));
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    loop {
        if pos == bytes.len() {
            break; // clean end
        }
        if pos + 8 > bytes.len() {
            break; // torn frame header
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len == 0 || len > MAX_PAYLOAD {
            break; // garbage length: torn tail
        }
        let start = pos + 8;
        let end = start + len as usize;
        if end > bytes.len() {
            break; // torn payload
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break; // checksum failure: torn tail
        }
        records.push(payload.to_vec());
        pos = end;
    }
    Ok((records, pos))
}

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".compact.tmp");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::testutil::tmp_store_path;

    fn open_clean(path: &Path) -> (Segment, Vec<Vec<u8>>) {
        Segment::open(path, None).unwrap()
    }

    #[test]
    fn append_then_reopen_recovers_every_record() {
        let path = tmp_store_path("log-roundtrip");
        let (mut seg, recovered) = open_clean(&path);
        assert!(recovered.is_empty());
        seg.append(b"\x01first");
        seg.append(b"\x02second record");
        drop(seg);
        let (_seg, recovered) = open_clean(&path);
        assert_eq!(
            recovered,
            vec![b"\x01first".to_vec(), b"\x02second record".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = tmp_store_path("log-torn");
        let (mut seg, _) = open_clean(&path);
        seg.append(b"\x01keep me");
        drop(seg);
        // Simulate a crash mid-append: garbage half-frame at the tail.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x10, 0x00, 0x00, 0x00, 0xAA]).unwrap();
        drop(f);
        let (mut seg, recovered) = open_clean(&path);
        assert_eq!(recovered, vec![b"\x01keep me".to_vec()]);
        seg.append(b"\x02after recovery");
        drop(seg);
        let (_seg, recovered) = open_clean(&path);
        assert_eq!(
            recovered,
            vec![b"\x01keep me".to_vec(), b"\x02after recovery".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_record_drops_it_and_everything_after() {
        let path = tmp_store_path("log-crc");
        let (mut seg, _) = open_clean(&path);
        seg.append(b"\x01good");
        seg.append(b"\x02soon flipped");
        drop(seg);
        // Flip one payload byte of the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_seg, recovered) = open_clean(&path);
        assert_eq!(recovered, vec![b"\x01good".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_swaps_atomically_and_cleans_leftover_tmp() {
        let path = tmp_store_path("log-rewrite");
        let (mut seg, _) = open_clean(&path);
        seg.append(b"\x01a");
        seg.append(b"\x01b");
        seg.rewrite(&[b"\x01merged".to_vec()]);
        seg.append(b"\x01after");
        drop(seg);
        let (_seg, recovered) = open_clean(&path);
        assert_eq!(
            recovered,
            vec![b"\x01merged".to_vec(), b"\x01after".to_vec()]
        );

        // A stale temp file (crash before rename) is discarded at open.
        std::fs::write(tmp_path(&path), b"garbage").unwrap();
        let (_seg, recovered) = open_clean(&path);
        assert_eq!(
            recovered,
            vec![b"\x01merged".to_vec(), b"\x01after".to_vec()]
        );
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dead_segment_writes_nothing() {
        let path = tmp_store_path("log-dead");
        let plan = FaultPlan::at(CrashPoint::AppendDone).on_occurrence(1);
        let (mut seg, _) = Segment::open(&path, Some(plan)).unwrap();
        seg.append(b"\x01durable");
        assert!(seg.is_dead());
        seg.append(b"\x01lost");
        seg.rewrite(&[b"\x01also lost".to_vec()]);
        drop(seg);
        let (_seg, recovered) = open_clean(&path);
        assert_eq!(recovered, vec![b"\x01durable".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_append_loses_only_the_in_flight_record() {
        let path = tmp_store_path("log-torn-inject");
        let plan = FaultPlan::at(CrashPoint::AppendTorn).on_occurrence(2);
        let (mut seg, _) = Segment::open(&path, Some(plan)).unwrap();
        seg.append(b"\x01first survives a torn second");
        seg.append(b"\x02this one tears");
        assert!(seg.is_dead());
        drop(seg);
        let (_seg, recovered) = open_clean(&path);
        assert_eq!(
            recovered,
            vec![b"\x01first survives a torn second".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }
}
