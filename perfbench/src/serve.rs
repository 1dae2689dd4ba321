//! The encode daemon as a client sees it: start-up, a closed-loop client
//! over loopback TCP, and shutdown.

use crate::check::{self, Reply};
use crate::report::Ops;
use j2k_serve::wire::{self, Request, Response};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon flags: two pool threads, one encode worker per job.
const DAEMON_ARGS: [&str; 6] = ["--addr", "127.0.0.1:0", "--pool", "2", "--job-workers", "1"];

/// A running `j2kserved`, killed on drop if not stopped cleanly.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn the daemon on an ephemeral port and wait until it answers.
    pub fn start(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(DAEMON_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = out.read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.split(" on ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let mut d = Daemon {
            child,
            _stdout: out,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        d.addr = addr.ok_or_else(|| format!("no listen address in daemon banner {line:?}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(Response::Pong) = d.call(&Request::Ping) {
                return Ok(d);
            }
            if Instant::now() > deadline {
                return Err("daemon did not answer Ping within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn call(&self, req: &Request) -> Result<Response, String> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        wire::call(&mut s, req, wire::DEFAULT_MAX_FRAME).map_err(|e| format!("{e:?}"))
    }

    /// One request's raw reply payload, as a client receives it.
    pub fn reply_frame(&self, req: &Request) -> Result<Vec<u8>, String> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        wire::write_frame(&mut s, &wire::encode_request(req)).map_err(|e| e.to_string())?;
        wire::read_frame(&mut s, wire::DEFAULT_MAX_FRAME).map_err(|e| format!("{e:?}"))
    }

    /// Peak resident memory of the daemon (VmHWM), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::host::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask the daemon to drain and exit, and wait for it.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.call(&Request::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked.map(|_| ());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after Shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client's log from a closed loop.
#[derive(Default)]
pub struct ClientLog {
    /// (image index, round trip ms, timed frame work?) per served request.
    pub rtts: Vec<(usize, f64, bool)>,
    /// `encode_request` + `parse_response` time, µs, on timed requests.
    pub frame_us: Vec<f64>,
    /// Requests sent (the order position advanced by this loop).
    pub sent: usize,
    pub ops: Ops,
    pub failures: Vec<String>,
}

/// Failure messages a client keeps verbatim; all are counted.
const KEEP_FAILURES: usize = 8;

impl ClientLog {
    fn fail(&mut self, msg: String) {
        self.ops.failed += 1;
        if self.failures.len() < KEEP_FAILURES {
            self.failures.push(msg);
        }
    }
}

/// What one client of a closed loop sends, and when it stops.
pub struct Plan<'a> {
    pub requests: &'a [Request],
    pub refs: &'a [Vec<u8>],
    /// Request order (indices into `requests`), cycled from `start`.
    pub order: &'a [usize],
    pub start: usize,
    /// Stop once this has passed and `min_requests` were sent...
    pub until: Instant,
    pub min_requests: usize,
    /// ...or at this instant regardless.
    pub hard_stop: Instant,
    /// With a seed, a seeded half of the requests also time their frame
    /// encoding and parsing (chosen at random, not alternately, because
    /// consecutive round trips on one connection are correlated).
    pub time_frames: Option<u64>,
}

/// A closed loop: send one request, wait for its reply, check it, repeat.
/// No retries and no breaker: a refusal or error is a failed operation.
pub fn client_loop(addr: SocketAddr, plan: &Plan) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn: Option<TcpStream> = None;
    loop {
        let now = Instant::now();
        if now >= plan.hard_stop || (now >= plan.until && log.sent >= plan.min_requests) {
            return log;
        }
        let i = plan.start + log.sent;
        log.sent += 1;
        let img = plan.order[i % plan.order.len()];
        let timed = plan
            .time_frames
            .is_some_and(|seed| crate::splitmix(seed ^ i as u64) & 1 == 1);
        log.ops.attempted += 1;
        let stream = match conn.as_mut() {
            Some(s) => s,
            None => match TcpStream::connect(addr) {
                Ok(s) => conn.insert(s),
                Err(e) => {
                    log.fail(format!("connect: {e}"));
                    continue;
                }
            },
        };
        let t0 = Instant::now();
        let payload = wire::encode_request(&plan.requests[img]);
        let t_enc = t0.elapsed();
        let io = wire::write_frame(stream, &payload)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| {
                wire::read_frame(stream, wire::DEFAULT_MAX_FRAME)
                    .map_err(|e| format!("read: {e:?}"))
            });
        let reply = match io {
            Ok(frame) => {
                let t_parse = Instant::now();
                let parsed = wire::parse_response(&frame);
                let parse = t_parse.elapsed();
                let rtt = t0.elapsed();
                if timed {
                    log.frame_us.push((t_enc + parse).as_secs_f64() * 1e6);
                }
                match parsed {
                    Ok(resp) => {
                        let r = check::encode_reply(&resp, &plan.refs[img]);
                        if r == Reply::Served {
                            log.rtts.push((img, rtt.as_secs_f64() * 1e3, timed));
                        }
                        r
                    }
                    Err(e) => Reply::Failed(format!("unparseable reply: {e:?}")),
                }
            }
            Err(e) => {
                conn = None;
                Reply::Failed(e)
            }
        };
        match reply {
            Reply::Served => log.ops.succeeded += 1,
            Reply::Rejected(m) => {
                log.ops.rejected += 1;
                log.fail(format!("rejected: {m}"));
            }
            Reply::Failed(m) => log.fail(m),
        }
    }
}
