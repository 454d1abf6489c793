//! End-to-end tests of the `hdsd-serve` binary: a scripted session of
//! lookups, budgeted estimates, region extractions and updates over
//! stdin/stdout, a snapshot save → restart cycle, and the TCP listener.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

use hdsd_service::Json;

const BIN: &str = env!("CARGO_BIN_EXE_hdsd-serve");

struct Serve {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Serve {
    fn spawn(args: &[&str]) -> Serve {
        let mut child = Command::new(BIN)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn hdsd-serve");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Serve { child, stdin, stdout }
    }

    fn request(&mut self, line: &str) -> Json {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().unwrap();
        let mut reply = String::new();
        self.stdout.read_line(&mut reply).expect("read response");
        Json::parse(reply.trim()).unwrap_or_else(|e| panic!("bad response {reply:?}: {e}"))
    }

    fn ok(&mut self, line: &str) -> Json {
        let v = self.request(line);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line} → {v}");
        v
    }

    fn shutdown(mut self) {
        let _ = writeln!(self.stdin, r#"{{"op":"shutdown"}}"#);
        let _ = self.child.wait();
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn scripted_session_over_stdin() {
    let mut s = Serve::spawn(&["--demo", "--spaces", "core,truss,34"]);

    let v = s.ok(r#"{"op":"stats"}"#);
    assert_eq!(v.get("vertices").unwrap().as_u64(), Some(7));
    assert_eq!(v.get("edges").unwrap().as_u64(), Some(12));

    // Exact lookups, id- and vertex-addressed.
    let v = s.ok(r#"{"op":"kappa","space":"core","id":0}"#);
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(3));
    let v = s.ok(r#"{"op":"kappa","space":"core","vertices":[6]}"#);
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(1));
    let v = s.ok(r#"{"op":"kappa","space":"truss","vertices":[0,1]}"#);
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(2));
    let v = s.ok(r#"{"op":"kappa","space":"34","vertices":[0,1,2]}"#);
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(1));

    // Budgeted estimate: the Theorem-1 interval brackets κ and reports
    // exploration telemetry.
    let v = s.ok(r#"{"op":"estimate","space":"core","id":2,"iterations":3,"budget":50}"#);
    let lower = v.get("lower").unwrap().as_u64().unwrap();
    let upper = v.get("estimate").unwrap().as_u64().unwrap();
    assert!(lower <= 3 && 3 <= upper, "interval [{lower}, {upper}] misses κ=3");
    assert!(v.get("explored").unwrap().as_u64().unwrap() >= 1);
    assert!(v.get("micros").is_some());

    // Densest region around vertex 0: the 3-core over both K4s.
    let v = s.ok(r#"{"op":"region","space":"core","id":0}"#);
    assert_eq!(v.get("k").unwrap().as_u64(), Some(3));
    assert_eq!(v.get("num_vertices").unwrap().as_u64(), Some(6));

    // The (3,4) hierarchy keeps the two K4s separate (paper Figure 3).
    let v = s.ok(r#"{"op":"nuclei","space":"34","k":1}"#);
    assert_eq!(v.get("total").unwrap().as_u64(), Some(2));

    // Updates refresh exactly: drop the tail, then close a K5.
    let v = s.ok(r#"{"op":"remove","edges":[[5,6]]}"#);
    assert_eq!(v.get("removed").unwrap().as_u64(), Some(1));
    let v = s.ok(r#"{"op":"kappa","space":"core","id":6}"#);
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(0));
    let v = s.ok(r#"{"op":"update","insert":[[0,4],[1,4]],"remove":[]}"#);
    assert_eq!(v.get("inserted").unwrap().as_u64(), Some(2));
    let refreshes = v.get("spaces").unwrap().as_array().unwrap();
    assert_eq!(refreshes.len(), 3);
    for r in refreshes {
        // Every clique of the space is peeled; (0,4) and (1,4) touch some.
        assert!(r.get("processed").unwrap().as_u64().unwrap() >= 6);
        assert!(r.get("awake").unwrap().as_u64().unwrap() >= 1);
    }
    let v = s.ok(r#"{"op":"kappa","space":"core","id":4}"#);
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(4));

    // Errors are per-request, not fatal.
    let v = s.request(r#"{"op":"kappa","space":"truss","vertices":[0,6]}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    s.ok(r#"{"op":"stats"}"#);

    s.shutdown();
}

#[test]
fn snapshot_save_and_restart() {
    let dir = std::env::temp_dir().join(format!("hdsd_serve_snap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("engine.snap");
    let snap_str = snap.to_str().unwrap().replace('\\', "/");

    let mut s = Serve::spawn(&["--synthetic", "400,5,0.5,11", "--spaces", "core,truss"]);
    s.ok(r#"{"op":"update","insert":[[0,200],[1,201]],"remove":[]}"#);
    let before = s.ok(r#"{"op":"kappa","space":"truss","id":33}"#);
    let v = s.ok(&format!(r#"{{"op":"save","path":"{snap_str}"}}"#));
    assert_eq!(v.get("spaces").unwrap().as_u64(), Some(2));
    s.shutdown();

    // Restart from the snapshot: same answers, hierarchy already resident.
    let mut s2 = Serve::spawn(&["--snapshot", &snap_str]);
    let stats = s2.ok(r#"{"op":"stats"}"#);
    let resident: Vec<bool> = stats
        .get("spaces")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|sp| sp.get("hierarchy_resident").unwrap().as_bool().unwrap())
        .collect();
    assert_eq!(resident, vec![true, true], "snapshot should restore resident hierarchies");
    let after = s2.ok(r#"{"op":"kappa","space":"truss","id":33}"#);
    assert_eq!(
        before.get("kappa").unwrap().as_u64(),
        after.get("kappa").unwrap().as_u64(),
        "κ must survive the restart"
    );
    // The restored engine still serves updates.
    s2.ok(r#"{"op":"insert","edges":[[2,202]]}"#);
    s2.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tcp_mode_serves_requests() {
    // Pick a free port by binding and releasing it.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let mut child = Command::new(BIN)
        .args(["--demo", "--listen", &addr])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hdsd-serve --listen");

    // Wait for the listener to come up.
    let mut stream = None;
    for _ in 0..100 {
        match std::net::TcpStream::connect(&addr) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    let stream = stream.expect("connect to hdsd-serve");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let mut ask = |line: &str| -> Json {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Json::parse(reply.trim()).unwrap()
    };
    let v = ask(r#"{"op":"kappa","space":"core","id":0}"#);
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(3));
    let v = ask(r#"{"op":"stats"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let v = ask(r#"{"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

    // The process should exit after shutdown (give it a moment).
    for _ in 0..100 {
        match child.try_wait().unwrap() {
            Some(_) => break,
            None => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// Spawn a `--listen` daemon and connect, retrying until the listener
/// is up. Returns the child and a connected stream.
fn spawn_tcp(extra_args: &[&str]) -> (Child, String) {
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let mut args = extra_args.to_vec();
    args.extend_from_slice(&["--listen", &addr]);
    let child = Command::new(BIN)
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hdsd-serve --listen");
    (child, addr)
}

fn connect(addr: &str) -> std::net::TcpStream {
    for _ in 0..100 {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    panic!("connect to hdsd-serve at {addr}");
}

/// A connection that dies with responses still in flight frees its slot;
/// the next client reuses the slot index. Late responses for the dead
/// connection must be dropped, never delivered to the slot's new tenant
/// (generation-tag regression test).
#[test]
fn reused_slot_does_not_receive_stale_responses() {
    // A non-trivial graph so the doomed client's request takes long
    // enough to still be in flight when the second client is served.
    let (mut child, addr) = spawn_tcp(&["--synthetic", "5000,8,0.5,7", "--spaces", "core,truss"]);

    // Client A: one slow request (an update whose refresh sweep takes a
    // long time in a debug build), then invalid UTF-8 — the server marks
    // A dead in the same sweep it dispatches the update, so A's slot is
    // reaped and recycled while the response is still in flight.
    let mut a = connect(&addr);
    let mut burst = Vec::new();
    let inserts: Vec<String> = (0..50).map(|i| format!("[{i},{}]", 2500 + i)).collect();
    burst.extend_from_slice(
        format!("{{\"op\":\"update\",\"insert\":[{}]}}\n", inserts.join(",")).as_bytes(),
    );
    burst.extend_from_slice(b"\xff\xfe\xff\n");
    a.write_all(&burst).unwrap();
    a.flush().unwrap();

    // Give the IO loop time to dispatch the update and reap A, so B is
    // accepted into A's recycled slot while the update still runs.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let b = connect(&addr);
    let mut b_writer = b.try_clone().unwrap();
    let mut b_reader = BufReader::new(b);
    writeln!(b_writer, r#"{{"op":"stats"}}"#).unwrap();
    b_writer.flush().unwrap();

    // B's first — and only — response line must be its own stats answer,
    // not one of A's region answers.
    let mut first = String::new();
    b_reader.read_line(&mut first).unwrap();
    let v = Json::parse(first.trim()).unwrap_or_else(|e| panic!("bad response {first:?}: {e}"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    assert!(v.get("vertices").is_some(), "B received a response that is not its stats: {v}");

    // No stale response may trickle into B afterwards either — the
    // window is generous so A's update completes inside it.
    b_reader.get_ref().set_read_timeout(Some(std::time::Duration::from_millis(2500))).unwrap();
    let mut extra = String::new();
    match b_reader.read_line(&mut extra) {
        Ok(0) => panic!("server closed B's healthy connection"),
        Ok(_) => panic!("B received an unrequested response: {extra:?}"),
        Err(_) => {} // timeout: nothing further arrived — correct
    }

    let _ = child.kill();
    let _ = child.wait();
}

/// A newline-free line longer than the server's cap gets the connection
/// dropped instead of growing `read_buf` without bound — and the server
/// keeps serving other clients.
#[test]
fn oversized_request_line_is_rejected() {
    let (mut child, addr) = spawn_tcp(&["--demo"]);

    let mut flood = connect(&addr);
    // 2 MiB with no newline: past the 1 MiB cap the server kills the
    // connection, so some tail of this write may fail with a reset —
    // that is the expected outcome, not a test error.
    let chunk = vec![b'a'; 64 * 1024];
    let mut wrote_all = true;
    for _ in 0..32 {
        if flood.write_all(&chunk).is_err() {
            wrote_all = false;
            break;
        }
    }
    let _ = flood.flush();
    // The server must hang up: EOF or a reset, never a response.
    flood.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 64];
    match std::io::Read::read(&mut flood, &mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!(
            "server answered an unterminated over-long line with {n} bytes (wrote_all={wrote_all})"
        ),
    }

    // The daemon itself is unharmed: a fresh connection is served.
    let healthy = connect(&addr);
    let mut writer = healthy.try_clone().unwrap();
    let mut reader = BufReader::new(healthy);
    writeln!(writer, r#"{{"op":"kappa","space":"core","id":0}}"#).unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let v = Json::parse(reply.trim()).unwrap();
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(3), "{v}");

    let _ = child.kill();
    let _ = child.wait();
}

/// SIGTERM must drain and exit the stdio loop even while it is blocked
/// waiting for the next stdin line (no request traffic at all).
#[cfg(unix)]
#[test]
fn sigterm_interrupts_idle_stdin_loop() {
    let dir = std::env::temp_dir().join(format!("hdsd_serve_stdin_term_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_str().unwrap().to_string();

    let mut s = Serve::spawn(&["--demo", "--durable", &dir_str]);
    let v = s.ok(r#"{"op":"update","insert":[[0,4],[1,4]]}"#);
    assert_eq!(v.get("wal_seq").unwrap().as_u64(), Some(1), "{v}");

    // stdin stays open: the daemon is parked in a blocking line read.
    let status = Command::new("kill")
        .args(["-TERM", &s.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    let mut exited = false;
    for _ in 0..200 {
        if s.child.try_wait().unwrap().is_some() {
            exited = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(exited, "stdio daemon ignored SIGTERM while blocked on stdin");
    drop(s);

    // The exit was a graceful drain: the update is in the checkpoint.
    let mut s2 = Serve::spawn(&["--demo", "--durable", &dir_str]);
    let v = s2.ok(r#"{"op":"wal_stats"}"#);
    let rec = v.get("recovery").unwrap();
    assert_eq!(rec.get("replayed").and_then(Json::as_u64), Some(0), "{v}");
    let v = s2.ok(r#"{"op":"kappa","space":"core","id":4}"#);
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(4), "update lost despite graceful SIGTERM");
    s2.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panicking_request_is_survived_over_the_wire() {
    let mut s = Serve::spawn(&["--demo", "--debug-ops"]);
    let v = s.request(r#"{"op":"debug_panic"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert!(v.get("error").unwrap().as_str().unwrap().contains("internal panic"), "{v}");
    // The daemon did not die: the very next request on the same pipe is
    // answered normally.
    let v = s.ok(r#"{"op":"kappa","space":"core","id":0}"#);
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(3));
    s.shutdown();
}

#[test]
fn durable_daemon_survives_kill_dash_nine() {
    let dir = std::env::temp_dir().join(format!("hdsd_serve_durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_str().unwrap().replace('\\', "/");
    let durable_args =
        ["--demo", "--spaces", "core,truss,34", "--durable", &dir_str, "--fsync", "always"];

    let mut s = Serve::spawn(&durable_args);
    let v = s.ok(r#"{"op":"update","insert":[[0,4],[1,4]],"remove":[[5,6]]}"#);
    assert_eq!(v.get("wal_seq").unwrap().as_u64(), Some(1), "{v}");
    let v = s.ok(r#"{"op":"update","insert":[[0,7],[4,7]]}"#);
    assert_eq!(v.get("wal_seq").unwrap().as_u64(), Some(2));
    let kappa4 = s.ok(r#"{"op":"kappa","space":"core","id":4}"#);
    let kappa4 = kappa4.get("kappa").unwrap().as_u64().unwrap();
    assert_eq!(kappa4, 4, "the closed K5 must be served before the crash");
    // kill(), on unix, is SIGKILL: no drain, no checkpoint, no goodbye.
    s.child.kill().expect("kill -9");
    let _ = s.child.wait();
    drop(s);

    // Restart over the same directory: the WAL tail replays through the
    // warm update path and every acknowledged batch is still there.
    let mut s2 = Serve::spawn(&durable_args);
    let v = s2.ok(r#"{"op":"wal_stats"}"#);
    let rec = v.get("recovery").unwrap();
    assert_eq!(rec.get("snapshot_loaded").and_then(Json::as_bool), Some(true), "{v}");
    assert_eq!(rec.get("replayed").and_then(Json::as_u64), Some(2), "{v}");
    let v = s2.ok(r#"{"op":"kappa","space":"core","id":4}"#);
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(kappa4), "κ lost in the crash");
    let v = s2.ok(r#"{"op":"kappa","space":"core","id":6}"#);
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(0), "removal lost in the crash");
    // Graceful shutdown folds the replayed state into a checkpoint...
    let v = s2.request(r#"{"op":"shutdown"}"#);
    assert_eq!(v.get("checkpointed").and_then(Json::as_bool), Some(true), "{v}");
    let _ = s2.child.wait();
    drop(s2);

    // ...so the third start replays nothing.
    let mut s3 = Serve::spawn(&durable_args);
    let v = s3.ok(r#"{"op":"wal_stats"}"#);
    let rec = v.get("recovery").unwrap();
    assert_eq!(rec.get("replayed").and_then(Json::as_u64), Some(0), "{v}");
    s3.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn sigterm_drains_and_checkpoints_gracefully() {
    let dir = std::env::temp_dir().join(format!("hdsd_serve_sigterm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_str().unwrap().to_string();
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let mut child = Command::new(BIN)
        .args(["--demo", "--durable", &dir_str, "--listen", &addr])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn durable TCP hdsd-serve");

    let mut stream = None;
    for _ in 0..100 {
        match std::net::TcpStream::connect(&addr) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    let stream = stream.expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, r#"{{"op":"update","insert":[[0,4],[1,4]]}}"#).unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"wal_seq\":1"), "{reply}");

    // SIGTERM (not SIGKILL): the accept loop notices, drains, checkpoints.
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    for _ in 0..200 {
        if child.try_wait().unwrap().is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(child.try_wait().unwrap().is_some(), "daemon ignored SIGTERM");

    // The shutdown was graceful: the update is in the checkpoint and the
    // restart replays nothing.
    let mut s = Serve::spawn(&["--demo", "--durable", &dir_str]);
    let v = s.ok(r#"{"op":"wal_stats"}"#);
    let rec = v.get("recovery").unwrap();
    assert_eq!(rec.get("snapshot_loaded").and_then(Json::as_bool), Some(true), "{v}");
    assert_eq!(rec.get("replayed").and_then(Json::as_u64), Some(0), "{v}");
    let v = s.ok(r#"{"op":"kappa","space":"core","id":4}"#);
    assert_eq!(v.get("kappa").unwrap().as_u64(), Some(4), "update lost despite graceful SIGTERM");
    s.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
