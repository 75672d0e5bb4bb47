//! The `rtp serve` child process: spawned with CLI defaults, timed to
//! its `listening on` line, read through `/proc` and its in-band
//! `stats` verb, and always stopped and reaped.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::request;

/// A running `rtp serve`.
pub struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// `host:port` the server listens on.
    pub addr: String,
}

impl Server {
    /// Spawns `rtp serve` with the only flags the benchmark passes —
    /// the model, the dataset, an ephemeral port and the in-band
    /// shutdown verb; worker count and batching stay at their defaults —
    /// and blocks until it prints `listening on ADDR`. Returns it with
    /// the seconds since spawn (the set-up time).
    pub fn start(rtp: &Path, model: &Path, dataset: &Path) -> io::Result<(Self, f64)> {
        let spawned = Instant::now();
        let mut child = Command::new(rtp)
            .arg("serve")
            .arg("--model")
            .arg(model)
            .arg("--dataset")
            .arg(dataset)
            .args(["--port", "0", "--allow-shutdown"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // From here on, dropping `server` on an error kills the child.
        let mut server = Self { child, drain: None, addr: String::new() };
        let mut line = String::new();
        while server.addr.is_empty() {
            line.clear();
            if out.read_line(&mut line)? == 0 {
                return Err(io::Error::other("rtp serve exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr.to_string();
            }
        }
        let secs = spawned.elapsed().as_secs_f64();
        // Keep the pipe drained so the server never blocks on stdout.
        server.drain = Some(std::thread::spawn(move || {
            let _ = io::copy(&mut out, &mut io::sink());
        }));
        Ok((server, secs))
    }

    /// The raw `{"cmd":"stats"}` reply.
    pub fn stats(&self) -> io::Result<String> {
        request(&self.addr, "{\"cmd\":\"stats\"}")
    }

    /// User plus system CPU time of the server so far, microseconds.
    pub fn cpu_us(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')').ok_or_else(|| io::Error::other("bad stat"))? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 = fields[11].parse::<u64>().map_err(io::Error::other)?
            + fields[12].parse::<u64>().map_err(io::Error::other)?;
        Ok(ticks as f64 * 1e6 / clock_ticks_per_second())
    }

    /// Peak resident set size (`VmHWM`) of the server, megabytes.
    pub fn rss_peak_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM"))?;
        Ok(kb / 1024.0)
    }

    /// Asks the server to drain and exit, and reaps it.
    pub fn shutdown(mut self) -> io::Result<()> {
        let reply = request(&self.addr, "{\"cmd\":\"shutdown\"}")?;
        if !reply.contains("shutting down") {
            return Err(io::Error::other(format!("shutdown refused: {reply}")));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(io::Error::other("rtp serve did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(drain) = self.drain.take() {
            drain.join().map_err(|_| io::Error::other("stdout drain panicked"))?;
        }
        Ok(())
    }
}

impl Drop for Server {
    /// A server still running here means the run failed part-way: kill
    /// it so no child outlives the benchmark.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

const SC_CLK_TCK: i32 = 2;

fn clock_ticks_per_second() -> f64 {
    // SAFETY: sysconf only reads a configuration value; _SC_CLK_TCK is
    // a valid name on Linux.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}
