//! The host-speed reference: a trivial loopback service owned by the
//! benchmark, driven with the same shape of load as the server under
//! test, right before and right after every round.
//!
//! The shared host's speed drifts by up to 1.5x over minutes, and the
//! served path's wall-clock throughput drifts with it. The reference
//! runs the same number of client lanes and server threads, the same
//! sessions, window and frames, the same socket calls — and for durable
//! workloads an fsync'd append per frame — but answers every frame with
//! a fixed reply after hashing it. Its code never changes with the
//! program under test, so the ratio of the two throughputs moves only
//! when the server does.

use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::load::{TcpTransport, Transport};
use crate::site::ScratchDir;
use crate::workload::Workload;

/// The reference's answer to every frame.
const REPLY: &[u8] = b"GRAM/1 REPORT\njob: reference\nstate: ACTIVE\n\n";

/// Bytes the durable reference appends (and syncs) per frame: about a
/// journal record of `submit-durable`.
const RECORD_BYTES: usize = 256;

/// Serves one connection: every `\n\n`-terminated frame is hashed,
/// appended to `log` when there is one, and answered with [`REPLY`].
fn serve(mut stream: TcpStream, log: Option<&Mutex<File>>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut buf = vec![0u8; 8 * 1024];
    let mut pending: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut record = [0u8; RECORD_BYTES];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        pending.extend_from_slice(&buf[..n]);
        let mut start = 0;
        while let Some(at) = pending[start..].windows(2).position(|w| w == b"\n\n") {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for &byte in &pending[start..start + at] {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
            if let Some(log) = log {
                record[..8].copy_from_slice(&hash.to_le_bytes());
                let mut file = log.lock().unwrap_or_else(|e| e.into_inner());
                file.write_all(&record)?;
                file.sync_data()?;
            }
            stream.write_all(REPLY)?;
            start += at + 2;
        }
        pending.drain(..start);
    }
}

/// Replies per second of the reference service when `lanes` client
/// threads each run `sessions` sessions of `workload`'s shape, every
/// frame a copy of `frame`, against `lanes` server threads. Durable
/// workloads sync an append per frame to a file under `scratch`.
pub fn reference_ops_s(
    workload: Workload,
    frame: &[u8],
    lanes: usize,
    sessions: u64,
    scratch: &Path,
) -> io::Result<f64> {
    let dir =
        if workload.durable() { Some(ScratchDir::create(scratch, "reference")?) } else { None };
    let log = match &dir {
        Some(dir) => Some(Mutex::new(File::create(dir.path().join("log"))?)),
        None => None,
    };
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let stop = AtomicBool::new(false);
    let (window, session_frames) = (workload.window(), workload.session_frames());
    std::thread::scope(|scope| {
        for _ in 0..lanes {
            let (listener, stop, log) = (&listener, &stop, log.as_ref());
            scope.spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let _ = serve(stream, log);
                }
            });
        }
        let start = Instant::now();
        let clients: Vec<_> = (0..lanes)
            .map(|_| {
                scope.spawn(move || -> io::Result<u64> {
                    let mut replies = 0;
                    for _ in 0..sessions {
                        let mut transport = TcpTransport::connect(addr)?;
                        let (mut sent, mut inflight) = (0, 0);
                        while sent < session_frames || inflight > 0 {
                            while sent < session_frames && inflight < window {
                                transport.send(frame)?;
                                sent += 1;
                                inflight += 1;
                            }
                            if transport.recv()?.as_bytes() != &REPLY[..REPLY.len() - 1] {
                                return Err(io::Error::other("reference reply corrupted"));
                            }
                            inflight -= 1;
                            replies += 1;
                        }
                    }
                    Ok(replies)
                })
            })
            .collect();
        let mut replies = 0;
        let mut failure = None;
        for client in clients {
            match client.join().expect("reference client thread") {
                Ok(n) => replies += n,
                Err(e) => failure = Some(e),
            }
        }
        let wall = start.elapsed().as_secs_f64();
        // Wake every server thread blocked in `accept` so it sees `stop`.
        stop.store(true, Ordering::SeqCst);
        for _ in 0..lanes {
            let _ = TcpStream::connect(addr);
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(replies as f64 / wall),
        }
    })
}
