//! Seeded fixture for the `service-blocking` rule's listener arm:
//! exactly THREE violations must fire in this file — the sleep-based
//! accept poll, the unbounded `read_to_end` and the accept loop that
//! never sets `TCP_NODELAY` — while the comment mentions and the
//! cfg(test) block are allowed.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

pub fn accepts_with_nagle_on(listener: &TcpListener) {
    // VIOLATION: no set_nodelay on the accepted streams, so each
    // small reply waits for the client's delayed ACK.
    for conn in listener.incoming().flatten() {
        drop(conn);
    }
}

pub fn polls_instead_of_blocking() {
    // VIOLATION: a listener blocks in accept()/frame reads; sleeping
    // in a poll loop adds latency for every client.
    std::thread::sleep(Duration::from_millis(50));
}

pub fn slurps_the_whole_stream(conn: &mut TcpStream) -> Vec<u8> {
    let mut buf = Vec::new();
    // VIOLATION: unbounded read off the wire; read_frame bounds every
    // body by MAX_FRAME_BYTES.
    let _ = conn.read_to_end(&mut buf);
    buf
}

// .read_to_end( in a comment is fine, as is thread::sleep here, and
// set_nodelay(true) in a comment does not satisfy the rule.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        conn.set_nodelay(true).unwrap();
    }

    #[test]
    fn tests_may_slurp_their_own_streams() {
        let mut data: &[u8] = b"3\nRUN";
        let mut buf = String::new();
        let _ = data.read_to_string(&mut buf);
        std::thread::sleep(Duration::from_millis(1));
    }
}
