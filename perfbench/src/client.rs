//! The open-loop load generator: one thread, at most `conns` keep-alive
//! connections, requests sent on a fixed schedule whether or not earlier
//! ones have been answered. Latency is taken from each request's scheduled
//! arrival, so time a request spends waiting for a free connection counts.
//!
//! The generator blocks in `ppoll(2)` until the next arrival or socket
//! event, so it does not spin on a core the server needs.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::rc::Rc;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, n: c_ulong, timeout: *const Timespec, mask: *const c_void) -> c_int;
}

const POLLIN: c_short = 0x1;
/// How long requests already in flight at the drain ceiling may still take.
const IN_FLIGHT_GRACE: Duration = Duration::from_secs(10);
const POLLOUT: c_short = 0x4;

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Arrival time, from the start of the run.
    pub due: Duration,
    /// Request path (`/score` or `/ingest`).
    pub path: &'static str,
    /// Request body.
    pub body: Rc<str>,
    /// Requests of one session are never in flight together, so the server
    /// applies a session's events in schedule order.
    pub session: Option<usize>,
    /// Keep the response body for the output check.
    pub keep_body: bool,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// When it was written to a connection.
    pub sent: Option<Duration>,
    /// When its response was complete.
    pub done: Option<Duration>,
    /// HTTP status (0 = no response).
    pub status: u16,
    /// The response body, when the plan asked to keep it.
    pub body: Option<String>,
    /// The server's `X-Request-Id`, when the run was traced.
    pub rid: Option<String>,
}

impl Outcome {
    /// Whether the request was answered with a 2xx status.
    pub fn ok(&self) -> bool {
        self.done.is_some() && (200..300).contains(&self.status)
    }
}

/// A finished run of one schedule.
#[derive(Debug, Default)]
pub struct RunResult {
    /// One outcome per planned request, in plan order.
    pub outcomes: Vec<Outcome>,
    /// How late the generator noticed each arrival, ms.
    pub gen_lag_ms: Vec<f64>,
    /// Requests due but unanswered, sampled at each arrival.
    pub backlog: Vec<usize>,
    /// Requests never sent before the drain ceiling.
    pub unsent: usize,
}

impl RunResult {
    /// Latency of request `i` from its scheduled arrival, ms; infinite when
    /// it failed or was never answered.
    pub fn latency_ms(&self, plan: &[Planned], i: usize) -> f64 {
        let o = &self.outcomes[i];
        match o.done {
            Some(done) if o.ok() => (done - plan[i].due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// Completed requests per second among `idx`, from the first arrival
    /// to the last response.
    pub fn achieved_rps(&self, plan: &[Planned], idx: &[usize]) -> f64 {
        let first = idx.iter().map(|&i| plan[i].due).min();
        let last = idx
            .iter()
            .filter(|&&i| self.outcomes[i].ok())
            .filter_map(|&i| self.outcomes[i].done)
            .max();
        let ok = idx.iter().filter(|&&i| self.outcomes[i].ok()).count();
        match (first, last) {
            (Some(f), Some(l)) if l > f => ok as f64 / (l - f).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Time request `i` waited for a connection, ms.
    pub fn conn_wait_ms(&self, plan: &[Planned], i: usize) -> Option<f64> {
        self.outcomes[i]
            .sent
            .map(|s| (s - plan[i].due).as_secs_f64() * 1e3)
    }
}

struct Conn {
    stream: Option<TcpStream>,
    inflight: Option<usize>,
    wbuf: Vec<u8>,
    woff: usize,
    rbuf: Vec<u8>,
}

/// A parsed HTTP response head.
struct Head {
    status: u16,
    body_start: usize,
    content_length: usize,
    close: bool,
    rid: Option<String>,
}

fn parse_head(buf: &[u8]) -> Option<Head> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let text = std::str::from_utf8(&buf[..end]).ok()?;
    let mut lines = text.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut head = Head {
        status,
        body_start: end + 4,
        content_length: 0,
        close: false,
        rid: None,
    };
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        let v = v.trim();
        if k.eq_ignore_ascii_case("content-length") {
            head.content_length = v.parse().ok()?;
        } else if k.eq_ignore_ascii_case("connection") {
            head.close = v.eq_ignore_ascii_case("close");
        } else if k.eq_ignore_ascii_case("x-request-id") {
            head.rid = Some(v.to_string());
        }
    }
    Some(head)
}

fn render_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Runs `plan` (sorted by `due`) open-loop against `addr` over at most
/// `conns` keep-alive connections. Once the last arrival is due, the run
/// waits at most `drain` for the queue to empty; requests still unsent then
/// are counted in [`RunResult::unsent`] and fail, and requests in flight
/// get a further grace period.
pub fn run(addr: SocketAddr, plan: &[Planned], conns: usize, drain: Duration) -> RunResult {
    let mut res = RunResult {
        outcomes: vec![Outcome::default(); plan.len()],
        gen_lag_ms: Vec::with_capacity(plan.len()),
        backlog: Vec::with_capacity(plan.len()),
        unsent: 0,
    };
    let mut pool: Vec<Conn> = (0..conns.max(1))
        .map(|_| Conn {
            stream: connect(addr),
            inflight: None,
            wbuf: Vec::new(),
            woff: 0,
            rbuf: Vec::with_capacity(16 * 1024),
        })
        .collect();
    let n_sessions = plan
        .iter()
        .filter_map(|p| p.session)
        .max()
        .map_or(0, |m| m + 1);
    let mut session_busy = vec![false; n_sessions];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let mut open = 0usize; // due and not finished
    let last_due = plan.last().map_or(Duration::ZERO, |p| p.due);
    let start = Instant::now();
    let mut scratch = [0u8; 64 * 1024];
    loop {
        let now = start.elapsed();
        while next < plan.len() && plan[next].due <= now {
            res.gen_lag_ms
                .push((now - plan[next].due).as_secs_f64() * 1e3);
            queue.push_back(next);
            open += 1;
            res.backlog.push(open);
            next += 1;
        }
        if next == plan.len() && open == 0 {
            break;
        }
        if next == plan.len() && now >= last_due + drain && !queue.is_empty() {
            // Drain ceiling: what is still unsent fails; what is in flight
            // gets [`IN_FLIGHT_GRACE`] to finish.
            res.unsent = queue.len();
            open -= queue.len();
            queue.clear();
        }
        if now >= last_due + drain + IN_FLIGHT_GRACE {
            break;
        }
        // Hand due requests to idle connections, oldest first.
        for c in pool.iter_mut() {
            if c.inflight.is_some() {
                continue;
            }
            let Some(&i) = queue.front() else { break };
            if let Some(s) = plan[i].session {
                if session_busy[s] {
                    break;
                }
            }
            if c.stream.is_none() {
                c.stream = connect(addr);
            }
            let Some(stream) = c.stream.as_mut() else {
                // Refused: the request fails now.
                queue.pop_front();
                open -= 1;
                res.outcomes[i].sent = Some(start.elapsed());
                continue;
            };
            queue.pop_front();
            c.wbuf = render_request(plan[i].path, &plan[i].body);
            c.woff = 0;
            c.rbuf.clear();
            res.outcomes[i].sent = Some(start.elapsed());
            match stream.write(&c.wbuf) {
                Ok(k) => c.woff = k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => {
                    c.stream = None;
                    open -= 1;
                    continue;
                }
            }
            c.inflight = Some(i);
            if let Some(s) = plan[i].session {
                session_busy[s] = true;
            }
        }
        // Sleep until the next arrival, the drain ceiling or a socket event.
        let now = start.elapsed();
        let wake = if next < plan.len() {
            plan[next].due
        } else if queue.is_empty() {
            last_due + drain + IN_FLIGHT_GRACE
        } else {
            last_due + drain
        };
        let timeout = wake.saturating_sub(now);
        let mut fds: Vec<PollFd> = Vec::with_capacity(pool.len());
        let mut who: Vec<usize> = Vec::with_capacity(pool.len());
        for (k, c) in pool.iter().enumerate() {
            if let (Some(_), Some(s)) = (c.inflight, c.stream.as_ref()) {
                let mut events = POLLIN;
                if c.woff < c.wbuf.len() {
                    events |= POLLOUT;
                }
                fds.push(PollFd {
                    fd: s.as_raw_fd(),
                    events,
                    revents: 0,
                });
                who.push(k);
            }
        }
        let ts = Timespec {
            tv_sec: timeout.as_secs() as c_long,
            tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
        };
        // SAFETY: `fds` is a live, correctly sized array of pollfd structs
        // and `ts` outlives the call; a null signal mask is allowed.
        let ready = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if ready <= 0 {
            continue;
        }
        for (fd, &k) in fds.iter().zip(&who) {
            if fd.revents == 0 {
                continue;
            }
            let c = &mut pool[k];
            let i = c.inflight.expect("polled connections are busy");
            let finished = pump(c, &mut scratch);
            match finished {
                Pump::Pending => continue,
                Pump::Done(head) => {
                    let o = &mut res.outcomes[i];
                    o.done = Some(start.elapsed());
                    o.status = head.status;
                    o.rid = head.rid;
                    if plan[i].keep_body {
                        let body = &c.rbuf[head.body_start..head.body_start + head.content_length];
                        o.body = Some(String::from_utf8_lossy(body).into_owned());
                    }
                    if head.close {
                        c.stream = None;
                    }
                }
                Pump::Broken => c.stream = None,
            }
            c.inflight = None;
            open -= 1;
            if let Some(s) = plan[i].session {
                session_busy[s] = false;
            }
        }
    }
    res
}

enum Pump {
    Pending,
    Done(Head),
    Broken,
}

/// Writes what is left of the request and reads what has arrived.
fn pump(c: &mut Conn, scratch: &mut [u8]) -> Pump {
    let Some(stream) = c.stream.as_mut() else {
        return Pump::Broken;
    };
    while c.woff < c.wbuf.len() {
        match stream.write(&c.wbuf[c.woff..]) {
            Ok(k) => c.woff += k,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Pump::Pending,
            Err(_) => return Pump::Broken,
        }
    }
    loop {
        match stream.read(scratch) {
            Ok(0) => return Pump::Broken,
            Ok(k) => c.rbuf.extend_from_slice(&scratch[..k]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Pump::Broken,
        }
    }
    match parse_head(&c.rbuf) {
        Some(head) if c.rbuf.len() >= head.body_start + head.content_length => Pump::Done(head),
        _ => Pump::Pending,
    }
}

fn connect(addr: SocketAddr) -> Option<TcpStream> {
    let s = TcpStream::connect(addr).ok()?;
    s.set_nodelay(true).ok()?;
    s.set_nonblocking(true).ok()?;
    Some(s)
}

/// One blocking request on a fresh connection, for set-up probes and the
/// debug endpoints (never on a measured path).
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf)?;
    let head = parse_head(&buf).ok_or_else(|| std::io::Error::other("malformed response"))?;
    let end = (head.body_start + head.content_length).min(buf.len());
    Ok((
        head.status,
        String::from_utf8_lossy(&buf[head.body_start..end]).into_owned(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_head() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Request-Id: r-7\r\n\r\n{}";
        let h = parse_head(raw).expect("complete head");
        assert_eq!(h.status, 200);
        assert_eq!(h.content_length, 2);
        assert_eq!(h.rid.as_deref(), Some("r-7"));
        assert_eq!(&raw[h.body_start..], b"{}");
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Len").is_none());
    }
}
