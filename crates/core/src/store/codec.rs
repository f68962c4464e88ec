//! Hand-rolled binary codec for the durable log.
//!
//! No serialization crate is vendored, so the record payloads are
//! encoded with a tiny explicit scheme: little-endian fixed-width
//! integers, `f64` as its IEEE-754 bit pattern, strings and sequences
//! length-prefixed with a `u32`. Every encoder has a matching decoder
//! and the pair is exercised by round-trip tests; maps are always
//! written in sorted key order so identical logical state produces
//! identical bytes (compaction output is diffable).

use std::collections::HashMap;

use qurk_crowd::truth::ItemId;
use qurk_crowd::{Answer, WorkerId};

use crate::backend::{TraceAssignment, TraceEntry};
use crate::opt::stats::{Avg, FeatureStat, RoundSums, StatisticsStore, Tally};
use crate::store::StoreError;

// CRC-32 (IEEE 802.3, reflected), table built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 checksum of `bytes` (IEEE polynomial).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Append-only byte buffer with typed writers.
#[derive(Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.f64(x);
            }
            None => self.bool(false),
        }
    }
}

/// Cursor over an encoded payload; every read is bounds-checked and a
/// failure surfaces as [`StoreError::Corrupt`].
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Capacity to preallocate for `n` decoded elements of at least
    /// `min_bytes` encoded bytes each: `n` capped at what the remaining
    /// payload could hold, so a corrupt count cannot force a huge
    /// allocation before the reads that would reject it.
    fn capacity(&self, n: usize, min_bytes: usize) -> usize {
        n.min(self.buf.len().saturating_sub(self.pos) / min_bytes)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| StoreError::corrupt("payload shorter than its fields"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::corrupt(format!("bad bool byte {other}"))),
        }
    }

    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    pub fn usize(&mut self) -> Result<usize, StoreError> {
        Ok(self.u64()? as usize)
    }

    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::corrupt("string field is not UTF-8"))
    }

    pub fn opt_f64(&mut self) -> Result<Option<f64>, StoreError> {
        Ok(if self.bool()? {
            Some(self.f64()?)
        } else {
            None
        })
    }

    /// Every decoder must drain its payload exactly; leftovers mean a
    /// schema mismatch.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(StoreError::corrupt("trailing bytes after payload"))
        }
    }
}

// ----------------------------------------------------- domain encoders

fn enc_answer(e: &mut Enc, a: &Answer) {
    match a {
        Answer::Bool(b) => {
            e.u8(0);
            e.bool(*b);
        }
        Answer::Category(c) => {
            e.u8(1);
            e.usize(*c);
        }
        Answer::Text(t) => {
            e.u8(2);
            e.str(t);
        }
        Answer::Ordering(items) => {
            e.u8(3);
            e.u32(items.len() as u32);
            for it in items {
                e.u64(it.0);
            }
        }
        Answer::Rating(r) => {
            e.u8(4);
            e.u8(*r);
        }
        Answer::Pick(it) => {
            e.u8(5);
            e.u64(it.0);
        }
    }
}

fn dec_answer(d: &mut Dec<'_>) -> Result<Answer, StoreError> {
    Ok(match d.u8()? {
        0 => Answer::Bool(d.bool()?),
        1 => Answer::Category(d.usize()?),
        2 => Answer::Text(d.str()?),
        3 => {
            let n = d.u32()? as usize;
            let mut items = Vec::with_capacity(d.capacity(n, 8));
            for _ in 0..n {
                items.push(ItemId(d.u64()?));
            }
            Answer::Ordering(items)
        }
        4 => Answer::Rating(d.u8()?),
        5 => Answer::Pick(ItemId(d.u64()?)),
        tag => return Err(StoreError::corrupt(format!("bad answer tag {tag}"))),
    })
}

pub(crate) fn enc_trace_entry(e: &mut Enc, entry: &TraceEntry) {
    e.usize(entry.question_count);
    e.u32(entry.assignments.len() as u32);
    for a in &entry.assignments {
        e.usize(a.worker.0);
        e.f64(a.accept_delay_secs);
        e.f64(a.submit_delay_secs);
        e.u32(a.answers.len() as u32);
        for ans in &a.answers {
            enc_answer(e, ans);
        }
    }
}

pub(crate) fn dec_trace_entry(d: &mut Dec<'_>) -> Result<TraceEntry, StoreError> {
    let question_count = d.usize()?;
    let n = d.u32()? as usize;
    // worker + two delays + answer count.
    let mut assignments = Vec::with_capacity(d.capacity(n, 8 + 8 + 8 + 4));
    for _ in 0..n {
        let worker = WorkerId(d.usize()?);
        let accept_delay_secs = d.f64()?;
        let submit_delay_secs = d.f64()?;
        let m = d.u32()? as usize;
        // The shortest answer is a tag byte plus a one-byte body.
        let mut answers = Vec::with_capacity(d.capacity(m, 2));
        for _ in 0..m {
            answers.push(dec_answer(d)?);
        }
        assignments.push(TraceAssignment {
            worker,
            answers,
            accept_delay_secs,
            submit_delay_secs,
        });
    }
    Ok(TraceEntry {
        question_count,
        assignments,
    })
}

fn sorted<V>(map: &HashMap<String, V>) -> Vec<(&String, &V)> {
    let mut v: Vec<_> = map.iter().collect();
    v.sort_by(|a, b| a.0.cmp(b.0));
    v
}

pub(crate) fn enc_stats(e: &mut Enc, s: &StatisticsStore) {
    e.u32(s.filters.len() as u32);
    for (k, t) in sorted(&s.filters) {
        e.str(k);
        e.u64(t.seen);
        e.u64(t.passed);
    }
    e.u32(s.joins.len() as u32);
    for (k, t) in sorted(&s.joins) {
        e.str(k);
        e.u64(t.seen);
        e.u64(t.passed);
    }
    e.u32(s.features.len() as u32);
    for (k, f) in sorted(&s.features) {
        e.str(k);
        e.f64(f.kappa);
        e.f64(f.selectivity);
    }
    e.u32(s.sorts.len() as u32);
    for (k, a) in sorted(&s.sorts) {
        e.str(k);
        e.u64(a.n);
        e.f64(a.sum);
    }
    e.u64(s.epoch_hits);
    e.f64(s.epoch_secs);
    e.u64(s.rounds.n);
    e.f64(s.rounds.sum_h);
    e.f64(s.rounds.sum_t);
    e.f64(s.rounds.sum_hh);
    e.f64(s.rounds.sum_ht);
}

pub(crate) fn dec_stats(d: &mut Dec<'_>) -> Result<StatisticsStore, StoreError> {
    let mut s = StatisticsStore::default();
    for _ in 0..d.u32()? {
        let k = d.str()?;
        let seen = d.u64()?;
        let passed = d.u64()?;
        s.filters.insert(k, Tally { seen, passed });
    }
    for _ in 0..d.u32()? {
        let k = d.str()?;
        let seen = d.u64()?;
        let passed = d.u64()?;
        s.joins.insert(k, Tally { seen, passed });
    }
    for _ in 0..d.u32()? {
        let k = d.str()?;
        let kappa = d.f64()?;
        let selectivity = d.f64()?;
        s.features.insert(k, FeatureStat { kappa, selectivity });
    }
    for _ in 0..d.u32()? {
        let k = d.str()?;
        let n = d.u64()?;
        let sum = d.f64()?;
        s.sorts.insert(k, Avg { n, sum });
    }
    s.epoch_hits = d.u64()?;
    s.epoch_secs = d.f64()?;
    s.rounds = RoundSums {
        n: d.u64()?,
        sum_h: d.f64()?,
        sum_t: d.f64()?,
        sum_hh: d.f64()?,
        sum_ht: d.f64()?,
    };
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.f64(-0.125);
        e.str("héllo");
        e.opt_f64(None);
        e.opt_f64(Some(2.5));
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.opt_f64().unwrap(), None);
        assert_eq!(d.opt_f64().unwrap(), Some(2.5));
        d.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_corrupt_not_panics() {
        let mut e = Enc::new();
        e.str("abcdef");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..bytes.len() - 2]);
        assert!(d.str().is_err());
        // A length prefix pointing past the buffer must not overflow.
        let mut d = Dec::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(d.str().is_err());
    }

    #[test]
    fn huge_counts_are_corrupt_not_aborts() {
        // A trace entry claiming u32::MAX assignments in a 12-byte
        // payload.
        let mut e = Enc::new();
        e.usize(1);
        e.u32(u32::MAX);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 12);
        let err = dec_trace_entry(&mut Dec::new(&bytes)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");

        // One assignment claiming u32::MAX answers.
        let mut e = Enc::new();
        e.usize(1);
        e.u32(1);
        e.usize(3);
        e.f64(0.0);
        e.f64(1.0);
        e.u32(u32::MAX);
        let bytes = e.into_bytes();
        let err = dec_trace_entry(&mut Dec::new(&bytes)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");

        // An Ordering answer claiming u32::MAX items.
        let mut e = Enc::new();
        e.u8(3);
        e.u32(u32::MAX);
        e.u64(7);
        let bytes = e.into_bytes();
        let err = dec_answer(&mut Dec::new(&bytes)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn trace_entries_round_trip() {
        let entry = TraceEntry {
            question_count: 3,
            assignments: vec![
                TraceAssignment {
                    worker: WorkerId(42),
                    answers: vec![
                        Answer::Bool(true),
                        Answer::Category(2),
                        Answer::Text("blue".into()),
                        Answer::Ordering(vec![ItemId(9), ItemId(1)]),
                        Answer::Rating(4),
                        Answer::Pick(ItemId(7)),
                    ],
                    accept_delay_secs: 1.5,
                    submit_delay_secs: 30.25,
                },
                TraceAssignment {
                    worker: WorkerId(0),
                    answers: vec![],
                    accept_delay_secs: 0.0,
                    submit_delay_secs: 0.0,
                },
            ],
        };
        let mut e = Enc::new();
        enc_trace_entry(&mut e, &entry);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = dec_trace_entry(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, entry);
    }

    #[test]
    fn stats_round_trip_and_encode_deterministically() {
        let mut s = StatisticsStore::new();
        s.record_filter("isTall", 10, 4);
        s.record_filter("isRed", 6, 1);
        s.record_join("sameCeleb", 100, 12);
        s.record_feature("hairColor", 0.8, 0.4);
        s.record_sort("area", 0.3);
        s.record_epoch(12, 360.0);
        s.record_round(4.0, 120.0);

        let mut e = Enc::new();
        enc_stats(&mut e, &s);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = dec_stats(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, s);

        // Same logical content re-encodes to identical bytes (sorted
        // map order), regardless of hash-map iteration order.
        let mut e2 = Enc::new();
        enc_stats(&mut e2, &back);
        assert_eq!(e2.into_bytes(), bytes);
    }
}
