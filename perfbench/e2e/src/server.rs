//! Spawning, readiness-polling and stopping `mlpeer-serve` processes.

use std::fs::OpenOptions;
use std::io;
use std::net::TcpListener;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http::Conn;
use crate::{json, procfs};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;
const PR_SET_PDEATHSIG: i32 = 1;

/// What `/readyz` said when it first answered 200.
#[derive(Debug, Clone)]
pub struct Ready {
    /// Spawn → first 200 from `/readyz`.
    pub elapsed: Duration,
    pub epoch: u64,
    pub etag: String,
}

/// Read a `/readyz` body. The server answers 200 both when it is
/// `ready` and when it is `degraded` (say, with the durable-append
/// breaker open, when publishes skip the durable log), so only
/// `"status": "ready"` counts as ready.
pub fn parse_readyz(body: &str) -> Result<(u64, String), String> {
    let status = json::str_field(body, "status").ok_or("/readyz has no status")?;
    if status != "ready" {
        let body: Vec<&str> = body.split_whitespace().collect();
        return Err(format!("/readyz says {status}: {}", body.join(" ")));
    }
    let epoch = json::u64_field(body, "epoch").ok_or("/readyz has no epoch")?;
    let etag = json::str_field(body, "etag").ok_or("/readyz has no etag")?;
    Ok((epoch, etag.to_string()))
}

/// One running server; killed on drop if not stopped cleanly.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
    pub pid: u32,
    spawned: Instant,
}

/// A free loopback port (bound, read, released).
fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl Server {
    /// Start `bin args... --addr=127.0.0.1:<free port>`, appending its
    /// stderr to `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> io::Result<Server> {
        let addr = format!("127.0.0.1:{}", free_port()?);
        let stderr = OpenOptions::new().create(true).append(true).open(log)?;
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .arg(format!("--addr={addr}"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        // SAFETY: the hook runs in the forked child before exec and only
        // makes one prctl(2) syscall, which is async-signal-safe and
        // touches no memory. It ties the server's life to this driver's:
        // if the driver is killed, the kernel kills the server too.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let spawned = Instant::now();
        let child = cmd.spawn()?;
        Ok(Server {
            pid: child.id(),
            child: Some(child),
            addr,
            spawned,
        })
    }

    /// Poll `/readyz` until it answers 200, which must then say
    /// `ready`. Polls every millisecond for the first two seconds
    /// (restarts take ~0.2 s), then every 10 ms.
    pub fn wait_ready(&mut self, limit: Duration) -> Result<Ready, String> {
        loop {
            if let Some(ready) = self.probe_ready() {
                return ready;
            }
            let child = self.child.as_mut().expect("server running");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("server exited during boot: {status}"));
            }
            let waited = self.spawned.elapsed();
            if waited > limit {
                return Err(format!("server not ready after {waited:?}"));
            }
            let pause = if waited < Duration::from_secs(2) {
                1
            } else {
                10
            };
            std::thread::sleep(Duration::from_millis(pause));
        }
    }

    /// `None` until `/readyz` answers 200.
    fn probe_ready(&self) -> Option<Result<Ready, String>> {
        let mut conn = Conn::connect(&self.addr).ok()?;
        let resp = conn.get("/readyz").ok()?;
        let elapsed = self.spawned.elapsed();
        if resp.status != 200 {
            return None;
        }
        Some(parse_readyz(resp.text()).map(|(epoch, etag)| Ready {
            elapsed,
            epoch,
            etag,
        }))
    }

    /// `/readyz` on a running server: 200 and `ready`.
    pub fn check_ready(&self) -> Result<(), String> {
        let resp = Conn::connect(&self.addr)
            .and_then(|mut c| c.get("/readyz"))
            .map_err(|e| format!("/readyz: {e}"))?;
        if resp.status != 200 {
            return Err(format!("/readyz answered {}", resp.status));
        }
        parse_readyz(resp.text()).map(|_| ())
    }

    /// SIGTERM, then wait for the graceful drain. A clean stop is exit
    /// status 0 within `limit`; otherwise the process is killed and the
    /// stop reported as failed.
    ///
    /// `/readyz` answers a moment before the server installs its
    /// SIGTERM handler, and a SIGTERM in between kills it with the
    /// default action. So the signal waits (up to a second) until the
    /// process's caught-signal mask includes SIGTERM.
    pub fn stop(mut self, limit: Duration) -> Result<(), String> {
        let handler_by = Instant::now() + Duration::from_secs(1);
        while Instant::now() < handler_by {
            let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid));
            if status
                .ok()
                .and_then(|s| procfs::catches_signal(&s, SIGTERM as u32))
                != Some(false)
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut child = self.child.take().expect("server running");
        // Child ids are positive `pid_t`s, so the conversion holds.
        let pid = i32::try_from(child.id()).expect("pid fits pid_t");
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // ours; `pid` is our own child, not yet reaped, so it cannot
        // name a recycled process.
        if unsafe { kill(pid, SIGTERM) } != 0 {
            let err = io::Error::last_os_error();
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("SIGTERM failed: {err}"));
        }
        let deadline = Instant::now() + limit;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("drain ended with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("no clean exit within {limit:?} of SIGTERM"));
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readyz_must_say_ready() {
        let ready = "{\n  \"epoch\": 3,\n  \"etag\": \"f9892918815bb4ad\",\n  \
                     \"reasons\": [],\n  \"status\": \"ready\"\n}";
        assert_eq!(parse_readyz(ready), Ok((3, "f9892918815bb4ad".to_string())));
        // Degraded also answers 200, but does not count as ready.
        let degraded = ready
            .replace("[]", "[\"durable-append\"]")
            .replace("\"ready\"", "\"degraded\"");
        let err = parse_readyz(&degraded).unwrap_err();
        assert!(
            err.contains("degraded") && err.contains("durable-append"),
            "{err}"
        );
        assert!(parse_readyz("{\"epoch\": 3, \"etag\": \"x\"}").is_err());
    }
}
