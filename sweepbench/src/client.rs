//! The closed-loop client: one `macs-bench` server process, one request
//! in flight at a time.

use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use c240_obs::json::Json;

/// A running `macs-bench --serve` or `--coordinate` process. Dropping it
/// kills the process tree's root and waits for it; [`Server::finish`] is
/// the clean shutdown.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts `program args…` with piped stdin/stdout and `env` added.
    /// The environment switches that change the server's behaviour are
    /// cleared, so every run sees the same configuration.
    pub fn start(program: &Path, args: &[String], env: &[(&str, &str)]) -> io::Result<Server> {
        let mut child = Command::new(program)
            .args(args)
            .env_remove("MACS_FF")
            .env_remove("MACS_THREADS")
            .envs(env.iter().copied())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Server {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one line and reads one row: the request's latency is from
    /// the write to the read.
    pub fn request(&mut self, line: &str) -> io::Result<(Json, Duration)> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let stdin = self.stdin.as_mut().expect("stdin open until finish");
        let t0 = Instant::now();
        stdin.write_all(&buf)?;
        let row = read_row(&mut self.stdout)?;
        Ok((row, t0.elapsed()))
    }

    /// Peak resident memory of the server and every process it started,
    /// in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        tree_hwm_kib(self.child.id())
    }

    /// Closes the request stream, reads the end-of-stream summary row and
    /// waits for the process to exit.
    pub fn finish(mut self) -> io::Result<Json> {
        drop(self.stdin.take());
        let summary = read_row(&mut self.stdout)?;
        let mut rest = String::new();
        if self.stdout.read_line(&mut rest)? != 0 {
            return Err(io::Error::other(format!("row after the summary: {rest}")));
        }
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("server exited with {status}")));
        }
        Ok(summary)
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

fn read_row(stdout: &mut impl BufRead) -> io::Result<Json> {
    let mut line = String::new();
    if stdout.read_line(&mut line)? == 0 {
        return Err(io::Error::other("server closed its output"));
    }
    Json::parse(line.trim_end())
        .map_err(|e| io::Error::other(format!("unparsable row {line:?}: {e}")))
}

/// `VmHWM` of `pid` plus that of all its descendants, in KiB. Processes
/// that exit while being read count as 0.
fn tree_hwm_kib(pid: u32) -> u64 {
    let own = fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0);
    let mut total = own;
    if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            let children = fs::read_to_string(task.path().join("children")).unwrap_or_default();
            for child in children.split_whitespace().filter_map(|c| c.parse().ok()) {
                total += tree_hwm_kib(child);
            }
        }
    }
    total
}
