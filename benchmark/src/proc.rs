//! The `subqd` child process and everything read about it from outside:
//! CPU time, resident memory, the `STATS` exposition, core pinning.

use crate::load::Conn;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};
use subq_server::{Request, Response};

fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Where the two sides run: the server on the first allowed core, the
/// generator on the last. `None` when there is only one core or no
/// `taskset` to pin with — the run is then marked not comparable.
#[derive(Clone, Copy, Debug)]
pub struct Pinning {
    pub server_core: usize,
    pub generator_core: usize,
}

impl Pinning {
    /// Pins the calling thread (threads spawned later inherit the mask)
    /// and returns the layout, or `None` when pinning is unavailable.
    pub fn establish() -> Option<Pinning> {
        // The open loop sleeps until a due time; the default 50 µs timer
        // slack would show up as lateness. Threads inherit it.
        let _ = std::fs::write("/proc/self/timerslack_ns", "1000");
        let cpus = allowed_cpus();
        if cpus.len() < 2 {
            return None;
        }
        let pinning = Pinning {
            server_core: cpus[0],
            generator_core: *cpus.last().expect("two or more"),
        };
        let status = Command::new("taskset")
            .args(["-cp", &pinning.generator_core.to_string()])
            .arg(std::process::id().to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .ok()?;
        status.success().then_some(pinning)
    }
}

/// Nanoseconds of CPU a live `subqd` has used: its threads' `schedstat`
/// run times summed (nanosecond resolution; its threads never exit, so
/// none is lost), or `stat`'s ticks where `schedstat` is absent.
pub fn cpu_ns(pid: u32) -> u64 {
    let mut total = 0u64;
    let mut seen = false;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
                if let Some(ns) = text
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    total += ns;
                    seen = true;
                }
            }
        }
    }
    if seen {
        total
    } else {
        cpu_ticks_ns(pid)
    }
}

/// `utime + stime` of `pid` from `stat`, in nanoseconds at the kernel's
/// fixed 100 Hz user tick. Coarse, but it keeps counting threads that
/// have exited — which is what the generator's own share needs.
pub fn cpu_ticks_ns(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of those.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000_000
}

/// Resident set size of `pid` in MiB (`VmRSS`).
pub fn rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A running `subqd`; dropping it kills and reaps the process.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    /// When the `listening` line arrived: `subqd`'s main loop looks at
    /// its stop flag every [`STOP_POLL`] from about here.
    listening: Instant,
}

/// The period of `subqd`'s main loop (a constant of the binary).
const STOP_POLL: Duration = Duration::from_millis(100);

impl ServerProc {
    /// Starts `subqd --workers 1 --group-commit 64 --advisor off` on
    /// `dir` and waits for its `listening` line. `model` is only read
    /// when `dir` is empty (genesis); a populated `dir` recovers.
    pub fn spawn(
        subqd: &Path,
        dir: &Path,
        model: &Path,
        pinning: Option<Pinning>,
    ) -> io::Result<ServerProc> {
        let mut command = match pinning {
            Some(p) => {
                let mut c = Command::new("taskset");
                c.args(["-c", &p.server_core.to_string()]).arg(subqd);
                c
            }
            None => Command::new(subqd),
        };
        command
            .args(["--port", "0", "--workers", "1", "--group-commit", "64"])
            .args(["--advisor", "off", "--dir"])
            .arg(dir)
            .arg("--model")
            .arg(model)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = command.spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .rsplit(' ')
                .next()
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(ServerProc {
                child,
                stdin,
                addr,
                listening: Instant::now(),
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(invalid(format!(
                    "subqd did not report its address: {line:?}"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Clean stop: `quit` on stdin, then wait for exit 0.
    pub fn stop(mut self) -> io::Result<()> {
        if let Some(mut stdin) = self.stdin.take() {
            stdin.write_all(b"quit\n")?;
        }
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(invalid(format!("subqd exited with {status}")))
        }
    }

    /// A clean stop whose duration does not depend on where in its
    /// 100 ms poll period `subqd` happens to be: waits (uncounted) until
    /// 15 ms before the next poll, then stops and returns how long that
    /// took. Only meaningful on a life of a few seconds — the poll
    /// drifts by a timer slack per period.
    pub fn stop_aligned(self) -> io::Result<Duration> {
        let period = STOP_POLL.as_nanos();
        let into = self.listening.elapsed().as_nanos() % period;
        let target = period - Duration::from_millis(15).as_nanos();
        let wait = (target + period - into) % period;
        std::thread::sleep(Duration::from_nanos(wait as u64));
        let asked = Instant::now();
        self.stop()?;
        Ok(asked.elapsed())
    }

    /// `SIGKILL`, as a process crash: the page cache survives, the
    /// process's memory does not.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(|_| ())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One reading of the server's metrics registry, keyed by the sample
/// name as exposed (`name`, `name_sum`, `name_count`,
/// `name{quantile="0.5"}`).
#[derive(Clone, Debug, Default)]
pub struct Exposition(pub HashMap<String, f64>);

impl Exposition {
    pub fn parse<'a>(lines: impl Iterator<Item = &'a str>) -> Exposition {
        let mut map = HashMap::new();
        for line in lines {
            if line.starts_with('#') {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(value) = value.parse::<f64>() {
                    map.insert(name.to_owned(), value);
                }
            }
        }
        Exposition(map)
    }

    /// `STATS` over the wire, on one of the load connections (a third
    /// session would change what the worker loop polls). Also returns the
    /// reply's wire size: the server counts those bytes as sent *after*
    /// rendering, so a delta across two scrapes includes the first reply.
    pub fn scrape(conn: &mut Conn) -> io::Result<(Exposition, usize)> {
        match conn.request(&Request::Stats { slow: false })? {
            (Response::Report { lines, .. }, wire) => {
                Ok((Exposition::parse(lines.iter().map(String::as_str)), wire))
            }
            (other, _) => Err(invalid(format!("unexpected STATS reply: {other:?}"))),
        }
    }

    /// This process's own registry (the replay's counters).
    pub fn local() -> Exposition {
        Exposition::parse(subq_telemetry::global().render().lines())
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self − earlier` on one sample.
    pub fn delta(&self, earlier: &Exposition, name: &str) -> f64 {
        self.get(name) - earlier.get(name)
    }

    /// Mean of a histogram over the interval since `earlier`, in the
    /// histogram's own unit; 0 when nothing was recorded.
    pub fn mean(&self, earlier: &Exposition, histogram: &str) -> f64 {
        crate::stats::ratio(
            self.delta(earlier, &format!("{histogram}_sum")),
            self.delta(earlier, &format!("{histogram}_count")),
        )
    }
}

/// A scratch directory under `benchmark/out` that is removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> io::Result<ScratchDir> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parses_counters_and_summaries() {
        let text = "# TYPE a counter\na 3\n# TYPE h summary\nh{quantile=\"0.5\"} 7\nh_sum 100\nh_count 4\n";
        let later = Exposition::parse(text.lines());
        let earlier = Exposition::parse("a 1\nh_sum 40\nh_count 1\n".lines());
        assert_eq!(later.delta(&earlier, "a"), 2.0);
        assert_eq!(later.get("h{quantile=\"0.5\"}"), 7.0);
        assert_eq!(later.mean(&earlier, "h"), 20.0);
        assert_eq!(later.mean(&later, "h"), 0.0);
        assert_eq!(later.get("missing"), 0.0);
    }

    #[test]
    fn this_process_has_cpus_memory_and_cpu_time() {
        assert!(!allowed_cpus().is_empty());
        assert!(rss_mb(std::process::id()) > 0.0);
        let before = cpu_ticks_ns(std::process::id());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_ticks_ns(std::process::id()) >= before);
        assert!(cpu_ns(std::process::id()) > 0);
    }
}
