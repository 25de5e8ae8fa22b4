//! The `cfl serve` child process the serve workloads drive.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use cfl_match::serve::json::Json;

use crate::client::{Conn, Failure};

/// A running `cfl serve --workers 2` on a loopback ephemeral port. Dropping
/// it kills the process and waits for it to exit.
pub struct ServerProc {
    child: Child,
    /// The banner is read from here; kept open afterwards so the server
    /// never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Starts the server and waits for its "listening on ADDR" line. Returns
    /// the time from spawn until then: graph parse plus statistics warm-up.
    pub fn spawn(
        cfl: &Path,
        graph: &Path,
        plan_cache: bool,
    ) -> Result<(ServerProc, Duration), String> {
        let start = Instant::now();
        let mut cmd = Command::new(cfl);
        cmd.arg("serve")
            .arg(graph)
            .args(["--listen", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if plan_cache {
            cmd.arg("--plan-cache");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfl.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout is not piped".to_string());
        };
        let mut server = ServerProc {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        let read = server.stdout.read_line(&mut line);
        let setup = start.elapsed();
        server.addr = match read {
            Ok(n) if n > 0 => line
                .strip_prefix("listening on ")
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string)
                .ok_or_else(|| format!("unexpected server banner {line:?}"))?,
            _ => return Err("cfl serve exited before listening".to_string()),
        };
        Ok((server, setup))
    }

    /// The server's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        vm_hwm_mb(&status)
    }

    /// The engine's `stats` counters.
    pub fn stats(&self) -> Result<Json, String> {
        let mut conn = Conn::connect(&self.addr, Duration::from_secs(10)).map_err(describe)?;
        let reply = conn.request(r#"{"op":"stats"}"#).map_err(describe)?;
        reply
            .get("stats")
            .cloned()
            .ok_or_else(|| "stats reply without stats".to_string())
    }

    /// Asks the server to exit and waits for it, killing it if it has not
    /// exited within ten seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(&self.addr, Duration::from_secs(10))
            .and_then(|mut c| c.request(r#"{"op":"shutdown"}"#))
            .map_err(describe);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => return asked.map(|_| ()),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(format!("cannot wait for the server: {e}")),
            }
        }
        Err("server did not exit after shutdown".to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

pub fn describe(f: Failure) -> String {
    format!("{f:?}")
}

/// `VmHWM` of a `/proc/<pid>/status` text, in MB.
pub fn vm_hwm_mb(status: &str) -> Result<f64, String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in process status".to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_vm_hwm() {
        let status = "Name:\tcfl\nVmPeak:\t  100 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(super::vm_hwm_mb(status), Ok(2.0));
        assert!(super::vm_hwm_mb("Name:\tcfl\n").is_err());
    }
}
