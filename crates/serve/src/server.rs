//! Transport frontends for the engine: line-at-a-time request
//! processing, a sequential `--stdin` mode for CI, and a threaded TCP
//! listener.
//!
//! Both frontends share [`process_line`], so a job behaves identically
//! whether it arrives over a socket or a pipe. A malformed or failing
//! line produces a structured rejection and never terminates the
//! service — the next line is processed normally.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::engine::{Engine, Job};
use crate::proto::{self, parse_request, Request, Source};

fn resolve(source: &Source) -> Result<(String, String), String> {
    match source {
        Source::Inline(text) => Ok((text.clone(), "<inline>".to_owned())),
        Source::Path(path) => std::fs::read_to_string(path)
            .map(|text| (text, path.clone()))
            .map_err(|e| format!("{path}: {e}")),
    }
}

/// Processes one request line into zero or more response lines (empty
/// lines produce no response). Blocking: job lines return only once the
/// campaign finished or was rejected.
pub fn process_line(engine: &Engine, line: &str) -> Vec<String> {
    let line = line.trim();
    if line.is_empty() {
        return Vec::new();
    }
    let request = match parse_request(line) {
        Ok(r) => r,
        Err((id, message)) => {
            engine.count_rejected();
            return vec![proto::status_rejected(&id, proto::S_MALFORMED, &message)];
        }
    };
    match request {
        Request::Stats { id } => vec![engine.stats_line(), proto::status_done(&id, false)],
        Request::Job(job) => {
            let read = |source: &Source| match resolve(source) {
                Ok(x) => Ok(x),
                Err(message) => {
                    engine.count_rejected();
                    Err(vec![proto::status_rejected(&job.id, proto::S_MALFORMED, &message)])
                }
            };
            let (spec_source, spec_label) = match read(&job.spec) {
                Ok(x) => x,
                Err(lines) => return lines,
            };
            let (scenario_source, _) = match read(&job.scenario) {
                Ok(x) => x,
                Err(lines) => return lines,
            };
            let resolved = Job {
                spec_source,
                spec_label,
                scenario_source,
                rounds: job.rounds,
                replications: job.replications,
                seed: job.seed,
                lanes: job.lanes,
            };
            match engine.submit(&resolved) {
                Ok(out) => vec![out.metrics_line, proto::status_done(&job.id, out.cache_hit)],
                Err(e) => vec![proto::status_rejected(&job.id, e.code, &e.message)],
            }
        }
    }
}

/// Serves requests from stdin, one line at a time, until EOF. Responses
/// go to stdout, flushed per request (CI drives this with a pipe). On
/// EOF the engine drains and stops.
pub fn serve_stdin(engine: &Engine) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = line?;
        let responses = process_line(engine, &line);
        let mut out = stdout.lock();
        for response in &responses {
            writeln!(out, "{response}")?;
        }
        out.flush()?;
    }
    engine.shutdown();
    Ok(())
}

/// A running TCP frontend: an accept loop plus one thread per
/// connection, all sharing one [`Engine`].
pub struct Server {
    engine: Engine,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (use port 0 to let the OS pick) and starts
    /// accepting.
    pub fn start(engine: Engine, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept so the loop can observe the stop flag.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let engine = engine.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&engine, &listener, &stop))
        };
        Ok(Server {
            engine,
            local_addr,
            accept_thread: Some(accept_thread),
            stop,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared engine (for metrics assertions and cache control).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Graceful shutdown: stop accepting connections, reject new jobs,
    /// drain in-flight ones, stop the workers. Connection threads exit
    /// when their clients hang up; they are not joined.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.engine.begin_shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.engine.shutdown();
    }
}

fn accept_loop(engine: &Engine, listener: &TcpListener, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let engine = engine.clone();
                std::thread::spawn(move || handle_connection(&engine, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serves one client: each request's response lines go out as a single
/// write, with Nagle's algorithm off — a reply split into segments would
/// otherwise wait on the client's delayed ACK (tens of milliseconds).
fn handle_connection(engine: &Engine, stream: TcpStream) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut reply = String::new();
    for line in reader.lines() {
        let Ok(line) = line else { return };
        reply.clear();
        for response in process_line(engine, &line) {
            reply.push_str(&response);
            reply.push('\n');
        }
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
    }
}

static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term_signal(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

/// Installs a SIGTERM/SIGINT hook that flips a flag checked by
/// [`term_requested`]. The binary's serve loop polls it and drains
/// gracefully instead of dying mid-job.
pub fn install_term_hook() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term_signal as *const () as usize);
        signal(SIGINT, on_term_signal as *const () as usize);
    }
}

/// Whether a termination signal arrived since [`install_term_hook`].
#[must_use]
pub fn term_requested() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}
