//! `serve-loopback`: the real `qurk-serve --listen 127.0.0.1:0 --store
//! <file>`, driven in a closed loop over one connection: the next
//! request is sent only after the previous reply has arrived.
//!
//! Traffic: four tenants; batches of two to four `QUERY` frames, then
//! `RUN` and `STATS`. The served world is the server's own fixed one,
//! so after a warm-up batch every HIT spec is a cache hit and the wire,
//! admission (parse and analyze on every `QUERY`), the scheduler
//! barrier, cache reads and store journaling do the work.

use std::io::{self, BufRead, BufReader, Cursor};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use qurk::service::protocol::{read_frame, write_frame, Frame};
use qurk::DurableStore;

use crate::util::SplitMix;

pub const TENANTS: [&str; 4] = ["ada", "bob", "cy", "dee"];

/// The query shapes the traffic mixes, with the rows a correct answer
/// has. The last shape is machine-only; its threshold is drawn per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    IsTall,
    ByArea,
    ByHeight,
    IdBelow(u8),
}

impl Shape {
    pub fn sql(self) -> String {
        match self {
            Shape::IsTall => "SELECT p.id FROM people AS p WHERE isTall(p.img)".to_owned(),
            Shape::ByArea => "SELECT s.label FROM squares AS s ORDER BY byArea(s.img)".to_owned(),
            Shape::ByHeight => "SELECT p.id FROM people AS p ORDER BY byHeight(p.img)".to_owned(),
            Shape::IdBelow(k) => format!("SELECT p.id FROM people AS p WHERE p.id < {k}"),
        }
    }

    /// Rows of a correct answer: five of the ten people are tall, six
    /// squares, ten people.
    pub fn rows(self) -> usize {
        match self {
            Shape::IsTall => 5,
            Shape::ByArea => 6,
            Shape::ByHeight => 10,
            Shape::IdBelow(k) => k as usize,
        }
    }

    fn index(self) -> usize {
        match self {
            Shape::IsTall => 0,
            Shape::ByArea => 1,
            Shape::ByHeight => 2,
            Shape::IdBelow(_) => 3,
        }
    }

    pub const ALL: [Shape; 4] = [
        Shape::IsTall,
        Shape::ByArea,
        Shape::ByHeight,
        Shape::IdBelow(4),
    ];

    fn random(rng: &mut SplitMix) -> Shape {
        match rng.below(4) {
            3 => Shape::IdBelow(1 + rng.below(10) as u8),
            i => Shape::ALL[i],
        }
    }
}

/// One `STATS` reply: `STATS <posted> posted <hits>/<misses> cache $<spend>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub posted: u64,
    pub hits: u64,
    pub misses: u64,
    pub spend: f64,
}

impl Stats {
    fn parse(body: &str) -> Option<Stats> {
        let w: Vec<&str> = body.split_whitespace().collect();
        match w.as_slice() {
            ["STATS", posted, "posted", ratio, "cache", spend] => {
                let (h, m) = ratio.split_once('/')?;
                Some(Stats {
                    posted: posted.parse().ok()?,
                    hits: h.parse().ok()?,
                    misses: m.parse().ok()?,
                    spend: spend.strip_prefix('$')?.parse().ok()?,
                })
            }
            _ => None,
        }
    }
}

/// One connection to a running server.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    bytes: u64,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // The client sends each request in one write with Nagle off, so
        // any stall measured is the server's.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            bytes: 0,
        })
    }

    /// Send one request and read `replies` frames; returns the reply
    /// bodies and the round-trip time.
    fn request(&mut self, body: &str, replies: usize) -> io::Result<(Vec<String>, Duration)> {
        let mut frame = Vec::with_capacity(body.len() + 8);
        write_frame(&mut frame, body)?;
        let start = Instant::now();
        io::Write::write_all(&mut self.writer, &frame)?;
        let mut out = Vec::with_capacity(replies);
        for _ in 0..replies {
            match read_frame(&mut self.reader)? {
                Frame::Body(b) => {
                    self.bytes += (b.len() + b.len().to_string().len() + 1) as u64;
                    out.push(b);
                }
                other => {
                    return Err(io::Error::other(format!("bad reply frame: {other:?}")));
                }
            }
        }
        let rtt = start.elapsed();
        self.bytes += frame.len() as u64;
        Ok((out, rtt))
    }
}

/// A `qurk-serve --listen` child process and one connection to it.
/// Dropping it kills the child if it is still running.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    client: Client,
    pub store: PathBuf,
}

impl Server {
    /// Start the server on a fresh store file, connect, and register
    /// the tenants.
    pub fn start(bin: &Path, store: PathBuf) -> io::Result<Server> {
        let _ = std::fs::remove_file(&store);
        let mut child = Command::new(bin)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--store")
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let connected = stdout.read_line(&mut line).and_then(|_| {
            let addr = line
                .trim()
                .strip_prefix("LISTENING ")
                .ok_or_else(|| io::Error::other(format!("unexpected announcement {line:?}")))?;
            Client::connect(addr)
        });
        let client = match connected {
            Ok(c) => c,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            client,
            store,
        };
        for t in TENANTS {
            let (reply, _) = server.client.request(&format!("TENANT {t}"), 1)?;
            if reply[0] != format!("OK tenant {t}") {
                return Err(io::Error::other(format!("TENANT refused: {reply:?}")));
            }
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send `SHUTDOWN` and wait for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let (reply, _) = self.client.request("SHUTDOWN", 1)?;
        let status = self.child.wait()?;
        if reply[0] != "BYE" || !status.success() {
            return Err(io::Error::other(format!("shutdown: {reply:?}, {status}")));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Everything one session measured.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Round trips in seconds: every measured request, then by kind.
    pub request_rtt: Vec<f64>,
    pub query_rtt: Vec<f64>,
    pub run_rtt_per_query: Vec<f64>,
    pub stats_rtt: Vec<f64>,
    /// Measured batches: wall seconds and queries in each.
    pub batch: Vec<(f64, usize)>,
    pub measured_s: f64,
    pub requests: u64,
    pub failed: u64,
    /// The last STATS reply.
    pub last_stats: Option<Stats>,
    /// Store file size after the warm-up, and after each measured batch.
    pub warm_store_bytes: u64,
    pub store_sizes: Vec<u64>,
    /// Request and reply bodies of one measured batch, for the codec probe.
    pub sample_bodies: Vec<String>,
    pub wire_bytes: u64,
    /// The server's peak RSS after `RSS_BATCHES` measured batches (or at
    /// the end, if fewer ran): a fixed amount of served work, since the
    /// server's memory grows with the queries it has served.
    pub server_rss_mb: f64,
}

/// Measured batches after which the server's peak RSS is read.
pub const RSS_BATCHES: usize = 64;

impl ServeRun {
    /// Store bytes appended per query: the median over measured batches
    /// that did not compact the file.
    pub fn store_bytes_per_query(&self) -> f64 {
        let mut prev = self.warm_store_bytes;
        let mut per_query = Vec::new();
        for (&size, &(_, queries)) in self.store_sizes.iter().zip(&self.batch) {
            if size >= prev {
                per_query.push((size - prev) as f64 / queries as f64);
            }
            prev = size;
        }
        crate::util::median(&per_query)
    }

    /// Batches whose store file shrank: compactions.
    pub fn compactions(&self) -> u64 {
        std::iter::once(&self.warm_store_bytes)
            .chain(&self.store_sizes)
            .collect::<Vec<_>>()
            .windows(2)
            .filter(|w| w[1] < w[0])
            .count() as u64
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Queue `shapes` (tenant, shape), `RUN` them and read `STATS`.
/// Counts every request and every failed check into `s`.
fn batch(
    server: &mut Server,
    shapes: &[(usize, Shape)],
    s: &mut ServeRun,
    timed: bool,
) -> io::Result<Stats> {
    let start = Instant::now();
    let mut bodies = Vec::new();
    let mut queued = Vec::new();
    for &(tenant, shape) in shapes {
        let req = format!("QUERY {} {}", TENANTS[tenant], shape.sql());
        let (reply, rtt) = server.client.request(&req, 1)?;
        s.requests += 1;
        if reply[0].starts_with("OK queued") {
            queued.push((tenant, shape));
        } else {
            eprintln!("unexpected reply {reply:?} to {req:?}");
            s.failed += 1;
        }
        if timed {
            s.request_rtt.push(rtt.as_secs_f64());
            s.query_rtt.push(rtt.as_secs_f64());
        }
        bodies.push(req);
        bodies.extend(reply);
    }
    let (replies, rtt) = server.client.request("RUN", queued.len() + 1)?;
    s.requests += 1;
    for (&(tenant, shape), reply) in queued.iter().zip(&replies) {
        let want = format!("RESULT {} {} rows ", TENANTS[tenant], shape.rows());
        if !reply.starts_with(&want) {
            eprintln!("unexpected reply {reply:?} to {:?}", shape.sql());
            s.failed += 1;
        }
    }
    if replies.last() != Some(&format!("OK ran {}", queued.len())) {
        s.failed += 1;
    }
    let (stats, stats_rtt) = server.client.request("STATS", 1)?;
    s.requests += 1;
    if timed {
        s.request_rtt
            .extend([rtt.as_secs_f64(), stats_rtt.as_secs_f64()]);
        s.run_rtt_per_query
            .push(rtt.as_secs_f64() / shapes.len() as f64);
        s.stats_rtt.push(stats_rtt.as_secs_f64());
        s.batch.push((start.elapsed().as_secs_f64(), shapes.len()));
        if s.sample_bodies.is_empty() {
            bodies.push("RUN".to_owned());
            bodies.extend(replies);
            bodies.push("STATS".to_owned());
            bodies.push(stats[0].clone());
            s.sample_bodies = bodies;
        }
    }
    Stats::parse(&stats[0]).ok_or_else(|| io::Error::other(format!("bad STATS {stats:?}")))
}

/// How long a session measures.
pub enum Length {
    Seconds(f64),
    Batches(usize),
}

/// Drive one session on a started server: a warm-up batch holding every
/// shape, one single-query batch per shape to learn its cache hits,
/// then seeded batches until `length` is reached. Every `STATS` must
/// show no new crowd work and exactly the expected cache hits.
pub fn drive(server: &mut Server, seed: u64, length: Length) -> io::Result<ServeRun> {
    let mut s = ServeRun::default();
    server.client.bytes = 0;
    let mut rng = SplitMix::new(seed);
    let warm: Vec<(usize, Shape)> = Shape::ALL.iter().copied().enumerate().collect();
    let warm_stats = batch(server, &warm, &mut s, false)?;
    let mut hits_per_shape = [0u64; 4];
    let mut expect = warm_stats;
    for shape in Shape::ALL {
        let stats = batch(server, &[(0, shape)], &mut s, false)?;
        hits_per_shape[shape.index()] = stats.hits.saturating_sub(expect.hits);
        expect = stats;
    }
    s.warm_store_bytes = file_len(&server.store);

    let start = Instant::now();
    loop {
        let done = match length {
            Length::Batches(n) => s.batch.len() >= n,
            Length::Seconds(secs) => !s.batch.is_empty() && start.elapsed().as_secs_f64() >= secs,
        };
        if done {
            break;
        }
        let shapes: Vec<(usize, Shape)> = (0..2 + rng.below(3))
            .map(|_| (rng.below(TENANTS.len()), Shape::random(&mut rng)))
            .collect();
        let stats = batch(server, &shapes, &mut s, true)?;
        expect.hits += shapes
            .iter()
            .map(|(_, sh)| hits_per_shape[sh.index()])
            .sum::<u64>();
        if stats != expect {
            eprintln!("STATS {stats:?}, expected {expect:?}");
            s.failed += 1;
            expect = stats;
        }
        s.store_sizes.push(file_len(&server.store));
        if s.batch.len() == RSS_BATCHES {
            s.server_rss_mb = crate::util::peak_rss_mb(Some(server.pid()));
        }
    }
    s.measured_s = start.elapsed().as_secs_f64();
    s.last_stats = Some(expect);
    s.wire_bytes = server.client.bytes;
    if s.batch.len() < RSS_BATCHES {
        s.server_rss_mb = crate::util::peak_rss_mb(Some(server.pid()));
    }
    Ok(s)
}

/// The crowd's virtual seconds over a served session: the service
/// journals each query's crowd latency into the store's statistics, as
/// seconds per HIT, which this reads back from the closed store file.
pub fn crowd_virtual_s(store: &Path, posted: u64) -> io::Result<f64> {
    let stats = DurableStore::open(store)
        .map_err(crate::store_error)?
        .stats_snapshot();
    Ok(stats.secs_per_hit().unwrap_or(0.0) * posted as f64)
}

/// Median seconds to encode and decode one request/reply body on the
/// client, with no socket involved.
pub fn codec_secs(bodies: &[String]) -> f64 {
    if bodies.is_empty() {
        return 0.0;
    }
    let mut samples = Vec::new();
    let mut buf = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        buf.clear();
        for b in bodies {
            write_frame(&mut buf, b).expect("writing to a Vec cannot fail");
        }
        let mut r = Cursor::new(&buf);
        while let Ok(Frame::Body(b)) = read_frame(&mut r) {
            std::hint::black_box(b);
        }
        samples.push(t.elapsed().as_secs_f64() / bodies.len() as f64);
    }
    crate::util::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_lines_parse() {
        assert_eq!(
            Stats::parse("STATS 5 posted 2/5 cache $0.375"),
            Some(Stats {
                posted: 5,
                hits: 2,
                misses: 5,
                spend: 0.375
            })
        );
        assert_eq!(Stats::parse("OK ran 3"), None);
    }

    /// Two sessions with the same seed on fresh servers repeat every
    /// deterministic counter: the STATS totals (HITs, dollars, cache
    /// hits), the crowd's virtual seconds, and the store's size.
    #[test]
    fn same_seed_sessions_repeat_their_counters() {
        let bin = std::env::var_os("QURK_SERVE_BIN").expect(
            "set QURK_SERVE_BIN to a qurk-serve binary, or run `bash perfbench/run.sh test`",
        );
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench-tmp")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run = |tag: &str| {
            let mut server = Server::start(Path::new(&bin), dir.join(tag)).unwrap();
            let s = drive(&mut server, 3, Length::Batches(6)).unwrap();
            let store = server.store.clone();
            server.shutdown().unwrap();
            let last = s.last_stats.unwrap();
            let virtual_s = crowd_virtual_s(&store, last.posted).unwrap();
            assert_eq!(s.failed, 0);
            (last, virtual_s.to_bits(), s.warm_store_bytes, s.store_sizes)
        };
        let a = run("a.qwal");
        let b = run("b.qwal");
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir(dir.parent().unwrap());
        assert_eq!(a, b);
        assert!(a.0.posted > 0 && a.1 != 0 && a.2 > 0);
    }

    #[test]
    fn store_growth_skips_compacted_batches() {
        let s = ServeRun {
            warm_store_bytes: 100,
            store_sizes: vec![160, 220, 50, 110],
            batch: vec![(0.0, 2), (0.0, 3), (0.0, 2), (0.0, 3)],
            ..ServeRun::default()
        };
        assert_eq!(s.compactions(), 1);
        // Growth per query: 30, 20, (compacted), 20.
        assert_eq!(s.store_bytes_per_query(), 20.0);
    }
}
