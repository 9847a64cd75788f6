//! A `wasabid` child process on a unix socket, and what `/proc` says
//! about it.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use wasabi_server::Client;

/// Linux reports `utime`/`stime` in clock ticks of this many per second
/// (`USER_HZ`, fixed at 100 by the kernel ABI on every architecture
/// this benchmark runs on).
const TICKS_PER_SECOND: f64 = 100.0;

/// A running daemon. Dropping it kills and reaps the process if
/// [`Daemon::stop`] did not already.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    /// The flags it was started with (after `--socket <path>`).
    pub flags: Vec<String>,
}

impl Daemon {
    /// Start `bin --socket <socket> <flags…>` and wait until it accepts
    /// connections.
    ///
    /// # Errors
    ///
    /// Spawn failure, early exit, or no socket within 20 seconds.
    pub fn spawn(bin: &Path, socket: &Path, flags: &[String]) -> Result<Daemon, String> {
        let child = Command::new(bin)
            .arg("--socket")
            .arg(socket)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
            flags: flags.to_vec(),
        };
        let give_up = Instant::now() + Duration::from_secs(20);
        loop {
            if Client::connect_unix(socket).is_ok() {
                return Ok(daemon);
            }
            if let Some(status) = daemon.child_mut().try_wait().ok().flatten() {
                return Err(format!("wasabid exited during start-up ({status})"));
            }
            if Instant::now() > give_up {
                return Err("wasabid did not open its socket within 20 s".to_string());
            }
            // Fine-grained: start-up takes a few milliseconds, and
            // `setup_s` should not be quantised by this poll.
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("daemon not yet stopped")
    }

    /// The socket clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// A new client connection.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_unix(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon not yet stopped").id()
    }

    /// User + system CPU time the daemon has used, in milliseconds.
    ///
    /// # Errors
    ///
    /// `/proc` unreadable or malformed.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("read /proc stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')').ok_or("malformed /proc stat")? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((ticks(11)? + ticks(12)?) * 1e3 / TICKS_PER_SECOND)
    }

    /// Peak resident set size (`VmHWM`), in MiB.
    ///
    /// # Errors
    ///
    /// `/proc` unreadable or malformed.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Ask the daemon to shut down and wait for it to exit (killing it
    /// after 10 seconds).
    pub fn stop(mut self) {
        if let Ok(mut client) = self.connect() {
            let _ = client.shutdown();
        }
        let give_up = Instant::now() + Duration::from_secs(10);
        while Instant::now() < give_up {
            if let Ok(Some(_)) = self.child_mut().try_wait() {
                self.child = None;
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}
