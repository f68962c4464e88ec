//! `qurk-serve` — a multi-tenant query server over one shared
//! simulated marketplace.
//!
//! Reads length-prefixed request frames (see `qurk::service::protocol`)
//! from a script file (`--script FILE`), stdin, or — with
//! `--listen ADDR` — a real TCP socket, and writes one response frame
//! per request. Queries queued by several tenants between `RUN`
//! frames execute **concurrently** on the shared marketplace clock
//! (real OS-thread parallelism for the machine phase); identical HIT
//! specs across tenants are posted (and paid for) once.
//!
//! ```text
//! qurk-serve [--seed N] [--script FILE] [--store FILE] [--crash POINT[:N]]
//!            [--listen ADDR] [--max-conns N] [--cache-max N]
//! ```
//!
//! `--listen ADDR` binds a TCP listener (use port 0 to auto-pick; the
//! resolved address is announced as `LISTENING <addr>` on stdout) and
//! serves one protocol session per connection, sequentially — see
//! `listener`. `QUIT` ends a connection; `SHUTDOWN` also stops the
//! listener. `--max-conns N` stops after N connections. `--cache-max
//! N` bounds the shared task cache to N recorded specs (LRU eviction
//! at batch boundaries; evicted specs are re-paid if re-posted).
//!
//! With `--store FILE` the service journals every paid round, tenant
//! ledger, and in-flight query checkpoint to a durable log (see
//! `qurk::store`); after a crash, restarting with the same `--store`
//! and sending `RECOVER` resumes unfinished queries from their
//! checkpoints, replaying already-paid work instead of re-posting it.
//! `--crash POINT[:N]` arms a deterministic fault (testing aid): the
//! process's store dies at the N-th occurrence of the named crash
//! point, exactly as in the fault-injection harness.
//!
//! The served world is fixed and deterministic for a given seed: a
//! `people` table (10 rows, `isTall` filter + `byHeight` rank) and a
//! `squares` table (6 squares from the paper's §4.2.1 dataset,
//! `byArea` rank), so scripted sessions can be diffed byte-for-byte
//! (the CI smoke job does exactly that).

mod listener;

use std::io::{self, BufRead, BufReader, Write};
use std::process::ExitCode;

use std::sync::Arc;

use qurk::service::protocol::{fmt_dollars, read_frame, write_frame, Frame, Request};
use qurk::service::QueryService;
use qurk::store::{CrashPoint, DurableStore, FaultPlan};
use qurk::{Catalog, CrowdBackend, ExecConfig, Relation, Schema, Value, ValueType};
use qurk_crowd::truth::{DimensionParams, PredicateTruth};
use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};
use qurk_data::squares::{squares_dataset, AREA};

/// The served catalog + marketplace: `people` and `squares`.
fn world(seed: u64) -> (Catalog, Marketplace) {
    let mut gt = GroundTruth::new();

    // people: heights 0..10, the tallest five are "tall".
    gt.define_dimension("height", DimensionParams::crisp(0.02));
    let people = gt.new_items(10);
    for (i, &it) in people.iter().enumerate() {
        gt.set_predicate(
            it,
            "isTall",
            PredicateTruth {
                value: i >= 5,
                error_rate: 0.03,
            },
        );
        gt.set_score(it, "height", i as f64);
        gt.set_entity(it, EntityId(i as u64));
    }

    // squares: §4.2.1, six squares sorted by area.
    let squares = squares_dataset(&mut gt, 6);

    let market = Marketplace::new(&CrowdConfig::default().with_seed(seed), gt);

    let mut catalog = Catalog::new();
    let mut people_rel = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in people.iter().enumerate() {
        people_rel
            .push(vec![Value::Int(i as i64), Value::Item(it)])
            .expect("people row matches schema");
    }
    catalog.register_table("people", people_rel);

    let mut squares_rel = Relation::new(Schema::new(&[
        ("label", ValueType::Text),
        ("img", ValueType::Item),
    ]));
    for (i, &it) in squares.items.iter().enumerate() {
        squares_rel
            .push(vec![
                Value::text(squares.labels[i].clone()),
                Value::Item(it),
            ])
            .expect("squares row matches schema");
    }
    catalog.register_table("squares", squares_rel);

    catalog
        .define_tasks(&format!(
            r#"TASK isTall(field) TYPE Filter:
                Prompt: "<img src='%s'> Tall?", tuple[field]
               TASK byHeight(field) TYPE Rank:
                OrderDimensionName: "height"
                Html: "<img src='%s'>", tuple[field]
               TASK byArea(field) TYPE Rank:
                OrderDimensionName: "{AREA}"
                Html: "<img src='%s'>", tuple[field]
            "#
        ))
        .expect("builtin task definitions parse");
    (catalog, market)
}

/// How a protocol session ended — the listener uses this to decide
/// whether to keep accepting connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// Input ran out (or frame sync was lost): the session is over.
    Eof,
    /// The client sent `QUIT`: close this session only.
    Quit,
    /// The client sent `SHUTDOWN`: close this session and stop the
    /// listener, if any.
    Shutdown,
}

struct Args {
    seed: u64,
    script: Option<String>,
    store: Option<String>,
    crash: Option<FaultPlan>,
    listen: Option<String>,
    max_conns: Option<usize>,
    cache_max: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 7,
        script: None,
        store: None,
        crash: None,
        listen: None,
        max_conns: None,
        cache_max: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed requires a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--script" => {
                args.script = Some(it.next().ok_or("--script requires a path")?);
            }
            "--store" => {
                args.store = Some(it.next().ok_or("--store requires a path")?);
            }
            "--crash" => {
                let v = it.next().ok_or("--crash requires a crash point")?;
                let (point, occurrence) = match v.split_once(':') {
                    Some((p, n)) => (
                        p,
                        n.parse::<u32>()
                            .map_err(|_| format!("bad crash occurrence {n:?}"))?,
                    ),
                    None => (v.as_str(), 1),
                };
                let point = CrashPoint::parse(point)
                    .ok_or_else(|| format!("unknown crash point {point:?}"))?;
                args.crash = Some(FaultPlan::at(point).on_occurrence(occurrence));
            }
            "--listen" => {
                args.listen = Some(it.next().ok_or("--listen requires an address")?);
            }
            "--max-conns" => {
                let v = it.next().ok_or("--max-conns requires a count")?;
                args.max_conns = Some(v.parse().map_err(|_| format!("bad count {v:?}"))?);
            }
            "--cache-max" => {
                let v = it.next().ok_or("--cache-max requires a count")?;
                args.cache_max = Some(v.parse().map_err(|_| format!("bad count {v:?}"))?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: qurk-serve [--seed N] [--script FILE] [--store FILE] [--crash POINT[:N]] \
                     [--listen ADDR] [--max-conns N] [--cache-max N]"
                        .to_owned(),
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.crash.is_some() && args.store.is_none() {
        return Err("--crash requires --store".to_owned());
    }
    if args.listen.is_some() && args.script.is_some() {
        return Err("--listen and --script are mutually exclusive".to_owned());
    }
    if args.max_conns.is_some() && args.listen.is_none() {
        return Err("--max-conns requires --listen".to_owned());
    }
    Ok(args)
}

fn serve<R: BufRead + ?Sized, W: Write + ?Sized>(
    seed: u64,
    store: Option<Arc<DurableStore>>,
    cache_max: Option<usize>,
    input: &mut R,
    out: &mut W,
) -> io::Result<SessionEnd> {
    let (catalog, market) = world(seed);
    let catalog = Arc::new(catalog);
    let mut svc = match store {
        Some(store) => QueryService::with_store(catalog, market, ExecConfig::default(), store),
        None => QueryService::new(catalog, market),
    };
    svc.market().set_max_entries(cache_max);
    // Tenant names of queued queries, in submission order.
    let mut queued: Vec<String> = Vec::new();
    let mut end = SessionEnd::Eof;

    loop {
        // The one flush per request: the previous reply leaves in one
        // write just before we block waiting for the next request.
        out.flush()?;
        let body = match read_frame(input)? {
            Frame::Body(body) => body,
            Frame::Malformed { reason, resync } => {
                write_frame(out, &format!("ERR {reason}"))?;
                if resync {
                    continue;
                }
                // Frame sync is lost; anything further would be
                // misparsed garbage.
                break;
            }
            Frame::Eof => break,
        };
        let request = match Request::parse(&body) {
            Ok(r) => r,
            Err(e) => {
                write_frame(out, &format!("ERR {e}"))?;
                continue;
            }
        };
        match request {
            Request::Tenant { name, budget } => {
                svc.register_tenant(&name, budget);
                match budget {
                    Some(b) => {
                        write_frame(out, &format!("OK tenant {name} budget {}", fmt_dollars(b)))?
                    }
                    None => write_frame(out, &format!("OK tenant {name}"))?,
                }
            }
            Request::Query { tenant, sql } => match svc.submit(&tenant, &sql) {
                Ok(n) => {
                    queued.push(tenant);
                    write_frame(out, &format!("OK queued #{n}"))?;
                }
                Err(e) => write_frame(out, &format!("ERR {e}"))?,
            },
            Request::Run => {
                let reports = svc.run_pending();
                let n = reports.len();
                for (tenant, report) in queued.drain(..).zip(reports) {
                    match report {
                        Ok(r) => {
                            let svc_stats = r.service.as_ref();
                            let saved = svc_stats.map(|s| s.saved_dollars).unwrap_or_default();
                            let resumed = if svc_stats.is_some_and(|s| s.resumed) {
                                " resumed"
                            } else {
                                ""
                            };
                            write_frame(
                                out,
                                &format!(
                                    "RESULT {tenant} {} rows {} saved {}{resumed}",
                                    r.relation.len(),
                                    fmt_dollars(r.cost_dollars),
                                    fmt_dollars(saved),
                                ),
                            )?;
                        }
                        Err(e) => write_frame(out, &format!("ERR {tenant}: {e}"))?,
                    }
                }
                write_frame(out, &format!("OK ran {n}"))?;
            }
            Request::Stats => {
                let market = svc.market();
                let (hits, misses) = market.stats();
                let stats = format!(
                    "STATS {} posted {hits}/{misses} cache {}",
                    market.hits_posted(),
                    fmt_dollars(market.spend_dollars()),
                );
                write_frame(out, &stats)?;
            }
            Request::Recover => {
                if svc.store().is_none() {
                    write_frame(out, "ERR RECOVER requires --store")?;
                } else {
                    // Recovered queries join the pending queue in the
                    // order `recover` re-queued them, so RUN's RESULT
                    // frames line up.
                    let resumed = svc.recover();
                    let n = resumed.len();
                    queued.extend(resumed.into_iter().map(|c| c.tenant));
                    write_frame(out, &format!("OK recovered {n}"))?;
                }
            }
            Request::Quit => {
                write_frame(out, "BYE")?;
                end = SessionEnd::Quit;
                break;
            }
            Request::Shutdown => {
                write_frame(out, "BYE")?;
                end = SessionEnd::Shutdown;
                break;
            }
        }
    }
    out.flush()?;
    Ok(end)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let store = match &args.store {
        Some(path) => {
            let opened = match args.crash.clone() {
                Some(plan) => DurableStore::open_with_faults(path, plan),
                None => DurableStore::open(path),
            };
            match opened {
                Ok(store) => Some(Arc::new(store)),
                Err(e) => {
                    eprintln!("cannot open store {path:?}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };
    if let Some(addr) = &args.listen {
        // Each connection gets a fresh world (same seed) and a fresh
        // service; a shared --store carries the durable cache and
        // checkpoints across connections.
        let result = listener::listen(addr, args.max_conns, |input, out| {
            serve(args.seed, store.clone(), args.cache_max, input, out)
        });
        if let Err(e) = result {
            eprintln!("listener error: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let result = match &args.script {
        Some(path) => match std::fs::File::open(path) {
            Ok(f) => serve(
                args.seed,
                store,
                args.cache_max,
                &mut BufReader::new(f),
                &mut out,
            ),
            Err(e) => {
                eprintln!("cannot open {path:?}: {e}");
                return ExitCode::from(2);
            }
        },
        None => serve(
            args.seed,
            store,
            args.cache_max,
            &mut io::stdin().lock(),
            &mut out,
        ),
    };
    if let Err(e) = result {
        eprintln!("i/o error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufWriter;

    /// A `Write` double that keeps each `write` call's bytes apart.
    #[derive(Default)]
    struct Counting {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn script(requests: &[&str]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for r in requests {
            write_frame(&mut bytes, r).unwrap();
        }
        bytes
    }

    /// Served the way the listener serves a socket, each request's
    /// reply reaches the socket as exactly one write — `RUN`'s three
    /// `RESULT` frames and its `OK` included — and the bytes are the
    /// ones an unbuffered writer sees.
    #[test]
    fn one_write_per_request_through_a_bufwriter() {
        let query = "QUERY alice SELECT p.id FROM people AS p WHERE isTall(p.img)";
        let requests = ["TENANT alice", query, query, query, "RUN", "STATS", "QUIT"];
        let input = script(&requests);

        let mut buffered = BufWriter::new(Counting::default());
        let end = serve(7, None, None, &mut &input[..], &mut buffered).unwrap();
        assert_eq!(end, SessionEnd::Quit);
        // No `into_inner`: that would flush, and `serve` must have.
        let writes = &buffered.get_ref().writes;
        assert_eq!(writes.len(), requests.len(), "one write per request");
        let run_reply = String::from_utf8_lossy(&writes[4]);
        assert_eq!(run_reply.matches("RESULT alice").count(), 3, "{run_reply}");
        assert!(run_reply.ends_with("OK ran 3"), "{run_reply}");

        let mut unbuffered = Counting::default();
        serve(7, None, None, &mut &input[..], &mut unbuffered).unwrap();
        assert_eq!(unbuffered.writes.concat(), writes.concat());
    }
}
