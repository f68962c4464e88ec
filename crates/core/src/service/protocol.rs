//! The qurk-serve wire protocol: length-prefixed text frames.
//!
//! Frames are `<decimal byte length>\n<body>`, UTF-8, with no frame
//! terminator beyond the counted bytes — trivially parseable from a
//! socket or a shell script. Request bodies:
//!
//! ```text
//! TENANT <name> [BUDGET <dollars>]   register a tenant (idempotent)
//! QUERY <tenant> <sql ...>           queue a query for the tenant
//! RUN                                execute all queued queries concurrently
//! STATS                              shared-market totals
//! RECOVER                            resume checkpointed queries (needs --store)
//! QUIT                               close the connection
//! SHUTDOWN                           close the connection AND stop the listener
//! ```
//!
//! `QUIT` and `SHUTDOWN` are identical for a stdin/script session; on
//! a TCP listener (`qurk-serve --listen`) `QUIT` ends one connection
//! while `SHUTDOWN` also stops accepting new ones (graceful shutdown).
//!
//! Response bodies (one frame per request; `RUN` answers with one
//! frame per queued query, in submission order, then an `OK` frame):
//!
//! ```text
//! OK [<detail>]
//! ERR <message>
//! RESULT <tenant> <rows> rows $<spend> [<detail>]
//! STATS <posted> posted <hits>/<misses> cache $<spend>
//! BYE
//! ```
//!
//! Dollar amounts are always formatted with three decimals so scripted
//! sessions diff stably (the CI smoke job relies on this).

use std::io::{self, BufRead, Read, Write};

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `TENANT <name> [BUDGET <dollars>]`
    Tenant { name: String, budget: Option<f64> },
    /// `QUERY <tenant> <sql ...>`
    Query { tenant: String, sql: String },
    /// `RUN`
    Run,
    /// `STATS`
    Stats,
    /// `RECOVER`
    Recover,
    /// `QUIT`
    Quit,
    /// `SHUTDOWN` — like `QUIT`, but a TCP listener also stops
    /// accepting new connections.
    Shutdown,
}

impl Request {
    /// Parse a frame body. Errors name the offending token.
    pub fn parse(body: &str) -> Result<Request, String> {
        let trimmed = body.trim_end_matches(['\n', '\r']);
        let mut words = trimmed.splitn(2, ' ');
        let verb = words.next().unwrap_or_default();
        let rest = words.next().unwrap_or("").trim();
        match verb {
            "TENANT" => {
                let mut parts = rest.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| "TENANT requires a name".to_owned())?
                    .to_owned();
                let budget = match (parts.next(), parts.next()) {
                    (None, _) => None,
                    (Some("BUDGET"), Some(d)) => Some(
                        d.parse::<f64>()
                            .map_err(|_| format!("bad BUDGET amount {d:?}"))?,
                    ),
                    (Some(tok), _) => return Err(format!("unexpected token {tok:?}")),
                };
                Ok(Request::Tenant { name, budget })
            }
            "QUERY" => {
                let mut parts = rest.splitn(2, ' ');
                let tenant = parts
                    .next()
                    .filter(|t| !t.is_empty())
                    .ok_or_else(|| "QUERY requires a tenant".to_owned())?
                    .to_owned();
                let sql = parts.next().unwrap_or("").trim().to_owned();
                if sql.is_empty() {
                    return Err("QUERY requires SQL text".to_owned());
                }
                Ok(Request::Query { tenant, sql })
            }
            "RUN" if rest.is_empty() => Ok(Request::Run),
            "STATS" if rest.is_empty() => Ok(Request::Stats),
            "RECOVER" if rest.is_empty() => Ok(Request::Recover),
            "QUIT" if rest.is_empty() => Ok(Request::Quit),
            "SHUTDOWN" if rest.is_empty() => Ok(Request::Shutdown),
            other => Err(format!("unknown request {other:?}")),
        }
    }
}

/// Largest frame body [`read_frame`] will accept. A length prefix
/// above this is treated as a framing error (most likely garbage on
/// the stream), not an allocation request.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Most bytes [`read_frame`] reads for one length line: a `usize` has
/// at most 20 digits, which leaves room for padding and a `\r\n`. A
/// longer line is a framing error, so garbage without a newline is
/// never buffered whole.
const MAX_LENGTH_LINE_BYTES: u64 = 32;

/// One read off the wire: a frame body, a framing error, or EOF.
///
/// Framing errors are **data**, not [`io::Error`]s, so a server can
/// answer `ERR ...` and decide whether the stream is still usable:
/// after a bad (too long, non-UTF-8 or non-numeric) length line, an
/// oversized prefix, or a truncated body
/// the reader has lost frame sync (`resync: false`) and the only safe
/// move is to close; after a well-framed body that merely is not UTF-8
/// the counted bytes were fully consumed and the next frame parses
/// normally (`resync: true`).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A complete, UTF-8 frame body.
    Body(String),
    /// A framing violation. `resync` says whether the reader is still
    /// aligned on a frame boundary and may keep reading.
    Malformed { reason: String, resync: bool },
    /// Clean end of stream (before any length byte).
    Eof,
}

/// Write one `<len>\n<body>` frame as a single `write_all`, without
/// flushing. A server wraps its socket in a `BufWriter` and flushes
/// only when it is about to block on a read, so a whole reply — `RUN`'s
/// result frames and its `OK` — leaves in one syscall.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, body: &str) -> io::Result<()> {
    w.write_all(format!("{}\n{body}", body.len()).as_bytes())
}

/// Read one `<len>\n<body>` frame. Blank lines between frames are
/// skipped, so a scripted session can separate frames for readability.
/// Malformed input is reported as [`Frame::Malformed`] (see [`Frame`]
/// for which cases are recoverable); `Err` is reserved for real I/O
/// failures on the underlying reader.
pub fn read_frame<R: BufRead + ?Sized>(r: &mut R) -> io::Result<Frame> {
    let mut len_line = Vec::new();
    loop {
        len_line.clear();
        let mut bounded = Read::take(&mut *r, MAX_LENGTH_LINE_BYTES);
        if bounded.read_until(b'\n', &mut len_line)? == 0 {
            return Ok(Frame::Eof);
        }
        // A whitespace-only chunk (a blank line, or a bounded slice of
        // a long one) is skipped like any blank line.
        if !len_line.trim_ascii().is_empty() {
            break;
        }
    }
    if len_line.last() != Some(&b'\n') && len_line.len() as u64 == MAX_LENGTH_LINE_BYTES {
        return Ok(Frame::Malformed {
            reason: format!("frame length line exceeds {MAX_LENGTH_LINE_BYTES} bytes"),
            resync: false,
        });
    }
    let Ok(len_text) = std::str::from_utf8(&len_line) else {
        return Ok(Frame::Malformed {
            reason: "frame length line is not UTF-8".to_owned(),
            resync: false,
        });
    };
    let Ok(len) = len_text.trim().parse::<usize>() else {
        return Ok(Frame::Malformed {
            reason: format!("bad frame length {:?}", len_text.trim()),
            resync: false,
        });
    };
    if len > MAX_FRAME_BYTES {
        return Ok(Frame::Malformed {
            reason: format!("frame length {len} exceeds limit {MAX_FRAME_BYTES}"),
            resync: false,
        });
    }
    let mut body = vec![0u8; len];
    if let Err(e) = r.read_exact(&mut body) {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            return Ok(Frame::Malformed {
                reason: format!("truncated frame: stream ended inside a {len}-byte body"),
                resync: false,
            });
        }
        return Err(e);
    }
    match String::from_utf8(body) {
        Ok(s) => Ok(Frame::Body(s)),
        // The counted bytes were consumed, so the stream is still
        // frame-aligned — the caller may answer ERR and keep going.
        Err(_) => Ok(Frame::Malformed {
            reason: "frame body is not UTF-8".to_owned(),
            resync: true,
        }),
    }
}

/// Stable money formatting for responses (three decimals).
pub fn fmt_dollars(d: f64) -> String {
    format!("${d:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn body(f: Frame) -> String {
        match f {
            Frame::Body(s) => s,
            other => panic!("expected a body frame, got {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "TENANT alice BUDGET 2.5").unwrap();
        write_frame(&mut buf, "RUN").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(body(read_frame(&mut r).unwrap()), "TENANT alice BUDGET 2.5");
        assert_eq!(body(read_frame(&mut r).unwrap()), "RUN");
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Eof);
    }

    /// A `Write` double that counts the calls reaching it.
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        writes: usize,
        flushes: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    /// One frame is one `write` and no `flush`: with Nagle off, each
    /// small write would be its own packet, and a flush per frame
    /// would defeat the caller's buffering.
    #[test]
    fn write_frame_is_one_write_and_no_flush() {
        let mut w = Counting::default();
        write_frame(&mut w, "OK queued #3").unwrap();
        assert_eq!((w.writes, w.flushes), (1, 0));
        assert_eq!(w.bytes, b"12\nOK queued #3");
    }

    #[test]
    fn blank_lines_between_frames_are_skipped() {
        // A blank run longer than the length-line bound is skipped one
        // bounded chunk at a time.
        let long_blank = " ".repeat(100);
        let mut r = Cursor::new(format!("\n\n3\nRUN\n{long_blank}\n4\nQUIT\n"));
        assert_eq!(body(read_frame(&mut r).unwrap()), "RUN");
        assert_eq!(body(read_frame(&mut r).unwrap()), "QUIT");
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Eof);
    }

    #[test]
    fn bad_length_line_is_fatal_malformed() {
        let mut r = Cursor::new("banana\nRUN\n");
        match read_frame(&mut r).unwrap() {
            Frame::Malformed { reason, resync } => {
                assert!(reason.contains("bad frame length"), "{reason}");
                assert!(!resync);
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// Reads `input` once, asserting a fatal framing error whose
    /// reason mentions `why`, and returns how many bytes were consumed.
    fn fatal_malformed_consumed(input: Vec<u8>, why: &str) -> u64 {
        let mut r = Cursor::new(input);
        match read_frame(&mut r).unwrap() {
            Frame::Malformed { reason, resync } => {
                assert!(reason.contains(why), "{reason}");
                assert!(!resync);
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        r.position()
    }

    #[test]
    fn endless_length_line_is_rejected_after_a_bounded_read() {
        let digits = vec![b'7'; 4 << 20];
        let consumed = fatal_malformed_consumed(digits, "length line exceeds");
        assert!(
            consumed <= MAX_LENGTH_LINE_BYTES,
            "consumed {consumed} bytes"
        );
    }

    #[test]
    fn non_utf8_length_line_is_fatal_malformed_not_an_io_error() {
        let consumed = fatal_malformed_consumed(b"1\xff2\nRUN".to_vec(), "not UTF-8");
        assert!(
            consumed <= MAX_LENGTH_LINE_BYTES,
            "consumed {consumed} bytes"
        );
    }

    #[test]
    fn oversized_length_prefix_is_fatal_malformed() {
        let mut r = Cursor::new(format!("{}\nRUN", MAX_FRAME_BYTES + 1));
        match read_frame(&mut r).unwrap() {
            Frame::Malformed { reason, resync } => {
                assert!(reason.contains("exceeds limit"), "{reason}");
                assert!(!resync);
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_fatal_malformed() {
        let mut r = Cursor::new("10\nRUN");
        match read_frame(&mut r).unwrap() {
            Frame::Malformed { reason, resync } => {
                assert!(reason.contains("truncated frame"), "{reason}");
                assert!(!resync);
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_body_is_recoverable_malformed() {
        let mut bytes = b"4\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, 0x41, 0x42]);
        bytes.extend_from_slice(b"4\nQUIT");
        let mut r = Cursor::new(bytes);
        match read_frame(&mut r).unwrap() {
            Frame::Malformed { reason, resync } => {
                assert!(reason.contains("not UTF-8"), "{reason}");
                assert!(resync, "counted bytes were consumed; stream is aligned");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // The next frame parses normally: the bad bytes were consumed.
        assert_eq!(body(read_frame(&mut r).unwrap()), "QUIT");
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Eof);
    }

    #[test]
    fn parse_accepts_the_grammar() {
        assert_eq!(
            Request::parse("TENANT alice"),
            Ok(Request::Tenant {
                name: "alice".into(),
                budget: None
            })
        );
        assert_eq!(
            Request::parse("TENANT bob BUDGET 1.25"),
            Ok(Request::Tenant {
                name: "bob".into(),
                budget: Some(1.25)
            })
        );
        assert_eq!(
            Request::parse("QUERY alice SELECT * FROM people WHERE isTall(p)"),
            Ok(Request::Query {
                tenant: "alice".into(),
                sql: "SELECT * FROM people WHERE isTall(p)".into()
            })
        );
        assert_eq!(Request::parse("RUN"), Ok(Request::Run));
        assert_eq!(Request::parse("STATS"), Ok(Request::Stats));
        assert_eq!(Request::parse("RECOVER"), Ok(Request::Recover));
        assert_eq!(Request::parse("QUIT"), Ok(Request::Quit));
        assert_eq!(Request::parse("SHUTDOWN"), Ok(Request::Shutdown));
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        assert!(Request::parse("TENANT").is_err());
        assert!(Request::parse("TENANT a EXTRA").is_err());
        assert!(Request::parse("TENANT a BUDGET lots").is_err());
        assert!(Request::parse("QUERY alice").is_err());
        assert!(Request::parse("QUERY").is_err());
        assert!(Request::parse("EXPLODE now").is_err());
        assert!(Request::parse("RUN now").is_err());
        assert!(Request::parse("SHUTDOWN now").is_err());
    }

    #[test]
    fn dollars_are_stable() {
        assert_eq!(fmt_dollars(0.0), "$0.000");
        assert_eq!(fmt_dollars(1.0 / 3.0), "$0.333");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    proptest! {
        /// The wire entry points are total on hostile input: any bytes
        /// read as frames until EOF or lost sync, and every body (and
        /// the whole input, lossily decoded) parses to a request or an
        /// error — never a panic. Every read that is not EOF consumes
        /// at least one byte, so the stream ends within `len + 1` reads.
        #[test]
        fn wire_entry_points_never_panic(bytes in prop::collection::vec(0u8..=255, 0..512)) {
            let _ = Request::parse(&String::from_utf8_lossy(&bytes));
            let mut r = Cursor::new(&bytes);
            let mut ended = false;
            for _ in 0..=bytes.len() {
                match read_frame(&mut r).unwrap() {
                    Frame::Body(body) => {
                        let _ = Request::parse(&body);
                    }
                    Frame::Malformed { resync: true, .. } => {}
                    Frame::Malformed { resync: false, .. } | Frame::Eof => {
                        ended = true;
                        break;
                    }
                }
            }
            prop_assert!(ended);
        }
    }
}
