//! Load generation over the socket: open loops that time every request
//! from its due time, and closed loops with a fixed window.
//!
//! The hot loops only write lines, read lines and take timestamps; replies
//! are kept as text and parsed and checked after the phase, so the
//! generator's own CPU use stays small next to the server's.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::server::{check_interrupted, recv_line, send_line, Conn};

/// What one connection saw during a phase. Reply `i` answers request `i`
/// (the protocol is FIFO per connection).
#[derive(Default)]
pub struct Exchange {
    /// The instant `start_us` counts from.
    pub origin: Option<Instant>,
    /// Index into the phase's request list, per request sent.
    pub request: Vec<usize>,
    /// When the request was due (open loop) or sent (closed loop), µs from phase start.
    pub start_us: Vec<f64>,
    /// Reply received − `start_us`, µs.
    pub latency_us: Vec<f64>,
    /// Actual send − due time, µs (open loops only).
    pub late_us: Vec<f64>,
    /// Raw reply lines.
    pub replies: Vec<String>,
    /// Requests sent whose reply never came (connection error or timeout).
    pub lost: usize,
    /// First transport error, if any.
    pub error: Option<String>,
}

impl Exchange {
    /// Appends another connection's record.
    pub fn merge(&mut self, other: Exchange) {
        self.origin = self.origin.or(other.origin);
        self.request.extend(other.request);
        self.start_us.extend(other.start_us);
        self.latency_us.extend(other.latency_us);
        self.late_us.extend(other.late_us);
        self.replies.extend(other.replies);
        self.lost += other.lost;
        self.error = self.error.take().or(other.error);
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sent after the last scheduled request so the receiving side knows the
/// stream has ended without sharing a counter with the sender; its reply
/// is recognised by a key no other reply of these workloads carries.
const SENTINEL: &str = "{\"op\":\"stats\"}";
const SENTINEL_MARK: &str = "\"uptime_seconds\"";

/// Open loop on one connection: request `indices[i]` of `lines` is due at
/// `origin + due[i]` seconds whatever the server does; a sender thread
/// keeps the schedule while this thread reads replies. Raising `stop`
/// ends the schedule early (the churn reader runs for as long as the
/// writer does).
pub fn open_loop(
    addr: SocketAddr,
    lines: &[String],
    indices: &[usize],
    due: &[f64],
    origin: Instant,
    stop: &AtomicBool,
) -> Exchange {
    assert_eq!(indices.len(), due.len());
    let mut out = Exchange { origin: Some(origin), ..Exchange::default() };
    let conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            out.lost = indices.len();
            out.error = Some(e);
            return out;
        }
    };
    let (mut writer, mut reader) = conn.split();
    let (sent, send_error) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut late = Vec::with_capacity(due.len());
            for (&i, &at) in indices.iter().zip(due) {
                let due_at = origin + Duration::from_secs_f64(at);
                if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Err(e) = check_interrupted().and_then(|()| send_line(&mut writer, &lines[i]))
                {
                    return (late, Some(e));
                }
                late.push(micros(Instant::now().saturating_duration_since(due_at)));
            }
            let ended = send_line(&mut writer, SENTINEL).err();
            (late, ended)
        });
        out.replies.reserve(due.len());
        out.latency_us.reserve(due.len());
        for (&i, &at) in indices.iter().zip(due) {
            match recv_line(&mut reader) {
                Ok(reply) if reply.contains(SENTINEL_MARK) => break,
                Ok(reply) => {
                    let start = at * 1e6;
                    out.request.push(i);
                    out.start_us.push(start);
                    out.latency_us.push(micros(origin.elapsed()) - start);
                    out.replies.push(reply);
                }
                Err(e) => {
                    out.error = Some(e);
                    // Unblock a sender stuck in `write` on a dead peer.
                    let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
                    break;
                }
            }
        }
        sender.join().expect("sender thread does not panic")
    });
    out.lost = sent.len() - out.replies.len();
    out.late_us = sent;
    out.late_us.truncate(out.replies.len());
    out.error = out.error.take().or(send_error);
    out
}

/// Closed loop on one connection: `window` requests in flight, each reply
/// releasing the next request, cycling through `indices` until `seconds`
/// have passed or `limit` requests were sent; then the window drains.
pub fn closed_loop(
    addr: SocketAddr,
    lines: &[String],
    indices: &[usize],
    window: usize,
    origin: Instant,
    seconds: f64,
    limit: usize,
) -> Exchange {
    let mut out = Exchange { origin: Some(origin), ..Exchange::default() };
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            out.error = Some(e);
            return out;
        }
    };
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut next = 0usize;
    let mut received = 0usize;
    let send_one = |conn: &mut Conn, out: &mut Exchange, next: &mut usize| {
        let i = indices[*next % indices.len()];
        out.request.push(i);
        out.start_us.push(micros(origin.elapsed()));
        *next += 1;
        conn.send(&lines[i])
    };
    let result: Result<(), String> = (|| {
        while next < window.min(limit) {
            send_one(&mut conn, &mut out, &mut next)?;
        }
        while received < next {
            let reply = conn.recv()?;
            out.latency_us.push(micros(origin.elapsed()) - out.start_us[received]);
            out.replies.push(reply);
            received += 1;
            if next < limit && Instant::now() < deadline {
                check_interrupted()?;
                send_one(&mut conn, &mut out, &mut next)?;
            }
        }
        Ok(())
    })();
    out.error = result.err();
    out.lost = out.request.len() - out.replies.len();
    out.request.truncate(out.replies.len());
    out.start_us.truncate(out.replies.len());
    out
}
