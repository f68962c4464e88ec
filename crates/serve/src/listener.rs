//! TCP deployment of the `qurk-serve` protocol.
//!
//! `--listen ADDR` binds a [`TcpListener`] and serves **one protocol
//! session per connection**, sequentially: the accept loop hands each
//! connection to the session callback and only accepts the next one
//! after the previous session ends. Sequential serving is what keeps
//! scripted transcripts byte-diffable over a real socket — connections
//! never interleave on the marketplace clock, and there is no
//! polling: the loop blocks in `accept()` and in frame reads.
//!
//! The resolved address is announced on stdout as `LISTENING <addr>`
//! (bind to port 0 to let the OS pick — the CI socket smoke test does
//! exactly that). A `SHUTDOWN` frame ends its session *and* the
//! accept loop; `QUIT` or EOF ends only its own connection. Frame
//! reads go through `qurk::service::protocol::read_frame`, which
//! bounds every body by `MAX_FRAME_BYTES` — a garbage length prefix
//! from the network is a framing error, not an allocation.
//!
//! Every accepted socket has `TCP_NODELAY` set, and the session
//! writes into a `BufWriter` that it flushes only when it is about to
//! block on the next read or end the session: one reply, however
//! many frames, is one `write` syscall and leaves at once.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpListener;

use crate::SessionEnd;

/// Bind `addr` and serve connections until a session asks for
/// shutdown, `max_conns` connections have been served, or the
/// listener itself fails. Per-connection I/O errors end that session
/// only; the loop keeps accepting.
pub fn listen(
    addr: &str,
    max_conns: Option<usize>,
    mut session: impl FnMut(&mut dyn BufRead, &mut dyn Write) -> io::Result<SessionEnd>,
) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    {
        let stdout = io::stdout();
        let mut out = stdout.lock();
        writeln!(out, "LISTENING {local}")?;
        out.flush()?;
    }
    for (already_served, conn) in listener.incoming().enumerate() {
        let stream = conn?;
        // Replies are small; with Nagle on, each would wait for the
        // client's delayed ACK (~40 ms) before leaving.
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        let end = match session(&mut reader, &mut writer) {
            Ok(end) => end,
            Err(e) => {
                // A dropped client mid-frame is that client's problem.
                eprintln!("connection error: {e}");
                SessionEnd::Eof
            }
        };
        if matches!(end, SessionEnd::Shutdown) {
            break;
        }
        if max_conns.is_some_and(|m| already_served + 1 >= m) {
            break;
        }
    }
    Ok(())
}
