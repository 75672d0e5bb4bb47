//! The load generator: one process, [`CONNECTIONS`] connections, one
//! thread per connection. An open-loop phase sends on a precomputed
//! schedule whatever the replies do; a closed-loop phase keeps
//! [`IN_FLIGHT`] requests outstanding per connection. Replies are only
//! stored here; checking them happens after the phase, off the clock.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rtp_e2e_bench::{traced, Traffic, CONNECTIONS, IN_FLIGHT};

/// How long a phase waits for outstanding replies once it has stopped
/// sending.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// One answered request. Times are seconds since the phase start.
#[derive(Debug, Clone)]
pub struct Record {
    /// Index into [`Traffic::lines`].
    pub line: usize,
    /// When the schedule wanted the request sent (open loop), or when
    /// it was sent (closed loop).
    pub intended: f64,
    /// When the request was written to the socket.
    pub sent: f64,
    /// When its reply line was complete.
    pub recv: f64,
    /// The reply line, without the newline.
    pub reply: String,
}

/// Everything one phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Answered requests, in reply order per connection.
    pub records: Vec<Record>,
    /// Requests sent.
    pub sent: u64,
    /// Seconds from phase start to the last reply.
    pub elapsed: f64,
}

/// Which lines a phase sends and when it stops.
pub enum Plan<'a> {
    /// Open loop: request `i` is due at `schedule[i]`.
    Open(&'a [f64]),
    /// Closed loop until this many seconds have passed.
    ClosedFor(f64),
    /// Closed loop over each line of the traffic exactly once, in
    /// line order.
    EveryLineOnce,
}

/// Runs one phase against `addr`. Request `i` of the phase is
/// `traffic.line_at(i)` (or line `i` for [`Plan::EveryLineOnce`]) and
/// goes to connection `i % CONNECTIONS`.
pub fn run_phase(addr: &str, traffic: &Traffic, plan: &Plan<'_>, trace: bool) -> io::Result<Phase> {
    let streams: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<io::Result<_>>()?;
    let barrier = Barrier::new(CONNECTIONS);
    let start = Instant::now();
    let parts: Vec<io::Result<(Vec<Record>, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(conn, stream)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    raise_priority();
                    let conn = Conn { stream, traffic, conn: conn as u64, trace };
                    barrier.wait();
                    match plan {
                        Plan::Open(schedule) => conn.open_loop(schedule, start),
                        Plan::ClosedFor(seconds) => conn.closed_loop(start, |i, now| {
                            (now < *seconds).then(|| traffic.line_at(i))
                        }),
                        Plan::EveryLineOnce => conn.closed_loop(start, |i, _| {
                            ((i as usize) < traffic.lines.len()).then_some(i as usize)
                        }),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load generator thread panicked")).collect()
    });
    let mut phase = Phase::default();
    for part in parts {
        let (records, sent) = part?;
        phase.sent += sent;
        phase.records.extend(records);
    }
    phase.elapsed = phase.records.iter().map(|r| r.recv).fold(0.0, f64::max);
    Ok(phase)
}

struct Conn<'a> {
    stream: TcpStream,
    traffic: &'a Traffic,
    conn: u64,
    trace: bool,
}

impl Conn<'_> {
    /// The phase-wide index of this connection's `k`-th request.
    fn request_index(&self, k: u64) -> u64 {
        k * CONNECTIONS as u64 + self.conn
    }

    fn send(&mut self, line: usize) -> io::Result<()> {
        let text = &self.traffic.lines[line];
        let mut bytes = if self.trace { traced(text) } else { text.clone() };
        bytes.push('\n');
        self.stream.write_all(bytes.as_bytes())
    }

    /// Sends this connection's share of `schedule` on time, reading
    /// replies in between with `ppoll`, so a slow reply never delays
    /// a later send.
    fn open_loop(mut self, schedule: &[f64], start: Instant) -> io::Result<(Vec<Record>, u64)> {
        let mine: Vec<(usize, f64)> = (0..)
            .map(|k| self.request_index(k))
            .take_while(|&i| (i as usize) < schedule.len())
            .map(|i| (self.traffic.line_at(i), schedule[i as usize]))
            .collect();
        let mut pending = std::collections::VecDeque::new();
        let mut records = Vec::with_capacity(mine.len());
        let mut buf = Vec::new();
        let mut next = 0;
        let mut drain_deadline = None;
        while next < mine.len() || !pending.is_empty() {
            let now = start.elapsed().as_secs_f64();
            if next < mine.len() && mine[next].1 <= now {
                let (line, intended) = mine[next];
                self.send(line)?;
                pending.push_back((line, intended, start.elapsed().as_secs_f64()));
                next += 1;
                continue;
            }
            let wait = if next < mine.len() {
                Duration::from_secs_f64(mine[next].1 - now)
            } else {
                let deadline = *drain_deadline.get_or_insert(Instant::now() + DRAIN_TIMEOUT);
                deadline.saturating_duration_since(Instant::now())
            };
            if !wait_readable(self.stream.as_raw_fd(), wait)? {
                if next >= mine.len() {
                    break; // drain timed out: the rest count as unanswered
                }
                continue;
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            buf.extend_from_slice(&chunk[..n]);
            let recv = start.elapsed().as_secs_f64();
            while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
                let reply: Vec<u8> = buf.drain(..=nl).collect();
                let (line, intended, sent) =
                    pending.pop_front().ok_or_else(|| io::Error::other("unsolicited reply"))?;
                records.push(Record {
                    line,
                    intended,
                    sent,
                    recv,
                    reply: String::from_utf8_lossy(&reply[..nl]).into_owned(),
                });
            }
        }
        Ok((records, next as u64))
    }

    /// Keeps [`IN_FLIGHT`] requests outstanding; `pick(i, now)` names
    /// the line of phase request `i`, or `None` to stop sending.
    fn closed_loop(
        mut self,
        start: Instant,
        pick: impl Fn(u64, f64) -> Option<usize>,
    ) -> io::Result<(Vec<Record>, u64)> {
        self.stream.set_read_timeout(Some(DRAIN_TIMEOUT))?;
        let mut reader = BufReader::new(self.stream.try_clone()?);
        let mut pending = std::collections::VecDeque::new();
        let mut records = Vec::new();
        let mut k = 0u64;
        let mut stopped = false;
        loop {
            while !stopped && pending.len() < IN_FLIGHT {
                let now = start.elapsed().as_secs_f64();
                match pick(self.request_index(k), now) {
                    Some(line) => {
                        self.send(line)?;
                        pending.push_back((line, now));
                        k += 1;
                    }
                    None => stopped = true,
                }
            }
            let Some((line, sent)) = pending.pop_front() else { break };
            let mut reply = String::new();
            if reader.read_line(&mut reply)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            let recv = start.elapsed().as_secs_f64();
            reply.truncate(reply.trim_end().len());
            records.push(Record { line, intended: sent, sent, recv, reply });
        }
        Ok((records, k))
    }
}

/// Sends one control line on a fresh connection and returns the reply.
pub fn request(addr: &str, line: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    (&stream).write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const EINTR: i32 = 4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits up to `timeout` (microsecond precision, unlike a socket read
/// timeout) for `fd` to become readable.
fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd { fd, events: POLLIN, revents: 0 };
    let ts =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    loop {
        // SAFETY: `pfd` and `ts` are live, properly laid out (`repr(C)`
        // matching `struct pollfd` and `struct timespec` on 64-bit
        // Linux) for the whole call; nfds = 1 matches the one entry; a
        // null sigmask means the signal mask is left unchanged.
        let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
        if rc >= 0 {
            return Ok(rc > 0);
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            return Err(err);
        }
    }
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

const SCHED_FIFO: i32 = 1;
const PRIO_PROCESS: i32 = 0;

/// How the generator threads were scheduled.
static PRIORITY: std::sync::OnceLock<&'static str> = std::sync::OnceLock::new();

/// Lifts the calling generator thread above the server's threads, so a
/// request is sent when it is due instead of when a busy core frees
/// up: a real-time class where permitted, else a lower nice value,
/// else unchanged. Real clients run on other machines; on a 2-core
/// host this keeps the generator's own scheduling out of the latency.
fn raise_priority() {
    let param = SchedParam { priority: 1 };
    // SAFETY: pid 0 names the calling thread; `param` outlives the call.
    let how = if unsafe { sched_setscheduler(0, SCHED_FIFO, &param) } == 0 {
        "fifo"
    // SAFETY: who = 0 with PRIO_PROCESS names the calling thread.
    } else if unsafe { setpriority(PRIO_PROCESS, 0, -10) } == 0 {
        "nice-10"
    } else {
        "default"
    };
    PRIORITY.get_or_init(|| how);
}

/// The generator threads' scheduling: `fifo`, `nice-10` or `default`.
pub fn generator_priority() -> &'static str {
    PRIORITY.get().copied().unwrap_or("default")
}
