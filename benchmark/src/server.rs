//! The program under test as a child process: spawn, readiness, `kill -9`,
//! reaping on every exit path, and the line-protocol client.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::time::{Duration, Instant};

use hdsd_service::Json;

/// A reply slower than this fails its operation.
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a freshly spawned server may take to answer its first `stats`.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// Set by SIGINT/SIGTERM; the workload loops stop and unwind through
/// their guards when they see it.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);
/// Pids of live `hdsd-serve` children, for the signal handler. A leaked
/// server would keep answering on its port after the harness is gone.
static CHILDREN: [AtomicI32; 4] =
    [AtomicI32::new(0), AtomicI32::new(0), AtomicI32::new(0), AtomicI32::new(0)];

const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Lowers this process's timer slack from the default 50 µs to the
/// minimum, so the load generator's sleeps end when asked. Threads spawned
/// afterwards inherit it.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK) takes an integer and touches no
    // memory; failure (not Linux) leaves the default in place.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

extern "C" fn on_signal(_sig: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
    for slot in &CHILDREN {
        let pid = slot.load(Ordering::SeqCst);
        if pid > 0 {
            // SAFETY: kill(2) is async-signal-safe; `pid` is a child this
            // process spawned and has not yet reaped (the slot is cleared
            // before `wait`), so the signal cannot reach a recycled pid.
            unsafe { kill(pid, SIGKILL) };
        }
    }
}

/// Installs the SIGINT/SIGTERM handler: kill the children at once, then
/// let the main thread unwind (its guards remove the run directory).
pub fn install_signal_handlers() {
    // SAFETY: signal(2) with a handler that only stores to atomics and
    // calls kill(2), both async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Errors out once a termination signal has been seen.
pub fn check_interrupted() -> Result<(), String> {
    if INTERRUPTED.load(Ordering::SeqCst) {
        Err("interrupted by signal".to_string())
    } else {
        Ok(())
    }
}

/// A directory removed (with everything under it) when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `parent/run-<pid>-<label>`, replacing any stale one.
    pub fn create(parent: &Path, label: &str) -> Result<TempDir, String> {
        let path = parent.join(format!("run-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One line-protocol connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with Nagle off and the per-operation read timeout set.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
        stream.set_read_timeout(Some(OP_TIMEOUT)).map_err(|e| format!("set_read_timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone socket: {e}"))?);
        Ok(Conn { writer: stream, reader })
    }

    /// Splits into the sending and the receiving half (one thread each in
    /// an open loop).
    pub fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        send_line(&mut self.writer, line)
    }

    /// Receives one reply line (without its newline).
    pub fn recv(&mut self) -> Result<String, String> {
        recv_line(&mut self.reader)
    }

    /// One request, one parsed reply.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        let reply = self.recv()?;
        Json::parse(&reply).map_err(|e| format!("unparseable reply {reply:?}: {e}"))
    }
}

/// Writes `line` and its newline in one `write_all`.
pub fn send_line(w: &mut TcpStream, line: &str) -> Result<(), String> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf).map_err(|e| format!("send: {e}"))
}

/// Reads one reply line; a timeout or a closed connection is an error.
pub fn recv_line(r: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match r.read_line(&mut line) {
        Ok(0) => Err("connection closed by server".to_string()),
        Ok(_) => {
            line.truncate(line.trim_end().len());
            Ok(line)
        }
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// Whether a parsed reply is a full-quality success: `ok`, not shed, not degraded.
pub fn reply_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
        && reply.get("degraded").and_then(Json::as_bool) != Some(true)
}

/// Server-side handling time of a reply, µs.
pub fn reply_micros(reply: &Json) -> f64 {
    reply.get("micros").and_then(Json::as_f64).unwrap_or(0.0)
}

/// A running `hdsd-serve`, killed and reaped when dropped.
pub struct ServerProc {
    child: Child,
    slot: usize,
    /// Where it listens.
    pub addr: SocketAddr,
    /// The exact command line, for the result stamp.
    pub command_line: String,
    /// Spawn → first ok `stats`, seconds.
    pub ready_secs: f64,
}

/// The fixed server flags of every socket workload.
pub const SERVER_FLAGS: [&str; 6] =
    ["--spaces", "core,truss,34", "--readers", "2", "--threads", "1"];

impl ServerProc {
    /// Spawns the server on a free loopback port over `graph`, with
    /// `--durable DIR --fsync always` when `durable` is given, and waits
    /// for its first ok `stats`.
    pub fn spawn(
        bin: &Path,
        graph: &Path,
        durable: Option<&Path>,
        log: &Path,
    ) -> Result<ServerProc, String> {
        check_interrupted()?;
        // A free port, not a constant: a leaked server from an earlier
        // run must not be able to answer this one.
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("probe a free port: {e}"))?
            .port();
        let addr: SocketAddr = ([127, 0, 0, 1], port).into();
        let mut args: Vec<String> = vec!["--graph".into(), graph.display().to_string()];
        args.extend(SERVER_FLAGS.iter().map(|s| s.to_string()));
        args.extend(["--listen".to_string(), addr.to_string()]);
        if let Some(dir) = durable {
            args.extend(["--durable".into(), dir.display().to_string()]);
            args.extend(["--fsync".into(), "always".into()]);
        }
        let command_line = format!("{} {}", bin.display(), args.join(" "));
        let log_file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let slot = CHILDREN
            .iter()
            .position(|s| s.load(Ordering::SeqCst) == 0)
            .ok_or("too many live servers")?;
        let started = Instant::now();
        let child = Command::new(bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        CHILDREN[slot].store(child.id() as i32, Ordering::SeqCst);
        let mut server = ServerProc { child, slot, addr, command_line, ready_secs: 0.0 };
        server.await_ready(started, log)?;
        Ok(server)
    }

    fn await_ready(&mut self, started: Instant, log: &Path) -> Result<(), String> {
        loop {
            check_interrupted()?;
            if let Ok(Some(status)) = self.child.try_wait() {
                let tail = std::fs::read_to_string(log).unwrap_or_default();
                return Err(format!("hdsd-serve exited during start-up ({status}):\n{tail}"));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err("hdsd-serve did not answer `stats` in time".to_string());
            }
            if let Ok(mut conn) = Conn::open(self.addr) {
                if conn.call("{\"op\":\"stats\"}").is_ok_and(|r| reply_ok(&r)) {
                    self.ready_secs = started.elapsed().as_secs_f64();
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set (`VmHWM`) of the server so far, MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// `kill -9`, then reap.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Clear the slot first: once reaped, the pid may be recycled and
        // the signal handler must not touch it.
        if CHILDREN[self.slot].swap(0, Ordering::SeqCst) != 0 {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, MB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// Refuses a server binary that is missing or older than any source file
/// it is built from: a stale binary would be measured under a new name.
pub fn check_binary_fresh(bin: &Path, repo_root: &Path) -> Result<(), String> {
    let mtime = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified());
    let built = mtime(bin).map_err(|e| {
        format!("server binary {}: {e} (build it with benchmark/run.sh)", bin.display())
    })?;
    let mut stack = vec![repo_root.join("crates"), repo_root.join("Cargo.toml")];
    while let Some(path) = stack.pop() {
        if path.is_dir() {
            let entries =
                std::fs::read_dir(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            stack.extend(entries.flatten().map(|e| e.path()));
        } else if path.extension().is_some_and(|x| x == "rs" || x == "toml")
            && mtime(&path).is_ok_and(|m| m > built)
        {
            return Err(format!(
                "server binary {} is older than {}: rebuild with benchmark/run.sh",
                bin.display(),
                path.display()
            ));
        }
    }
    Ok(())
}

/// The filesystem type under `path` (longest mount-point prefix in
/// `/proc/mounts`), for the durability stamp.
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_string(), |(_, t)| t)
}
