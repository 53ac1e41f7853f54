//! The TCP front-end: listener, session registry, admission control and
//! graceful shutdown.
//!
//! One accepted connection = one session = two OS threads: a *reader*
//! that parses request lines and a *worker* that executes them and
//! writes responses. The reader feeds the worker through a bounded
//! channel sized to the per-session in-flight limit; a client that
//! pipelines past the limit gets an immediate `busy` error for the
//! overflowing request instead of unbounded buffering.
//!
//! Admission control happens at `accept`: past `max_sessions` the
//! connection is answered with one `busy` line and closed (a Warn
//! `session.reject` journal event plus the `server.admission_rejects`
//! counter — the bench asserts on both).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use ridl_engine::{Database, EngineError};
use ridl_obs::journal;
use ridl_obs::Severity;

use crate::json::{obj, Json};
use crate::pipeline::{spawn_committer, Core, JobKind};
use crate::proto::{
    encode_rows, engine_err_response, err_response, ok_response, parse_request, ErrorCode, Request,
    WriteOp,
};

/// Longest request line, newline included, a session reads. A longer
/// line is answered with a `proto` error and the connection is closed, so
/// a client cannot grow the reader's buffer without limit.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most write ops one server-side transaction buffers before `commit`. An
/// op past it is answered with a `proto` error and not buffered; the
/// transaction stays open.
pub const MAX_TXN_OPS: usize = 4096;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently admitted sessions; further connections are
    /// answered `busy` and closed.
    pub max_sessions: usize,
    /// Per-session pipelined-request limit; requests past it are answered
    /// `busy` without executing.
    pub max_inflight: usize,
    /// Commit-pipeline queue bound; writes submitted while it is full are
    /// answered `busy`.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_sessions: 64,
            max_inflight: 32,
            queue_depth: 1024,
        }
    }
}

struct Inner {
    core: Arc<Core>,
    cfg: ServerConfig,
    addr: SocketAddr,
    /// Stream handles of live sessions, for shutdown to unblock readers.
    sessions: Mutex<HashMap<u64, TcpStream>>,
    /// Worker/reader thread handles, joined at shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_session: AtomicU64,
    shutting_down: AtomicBool,
    /// Signalled when a client issues the `shutdown` command.
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
}

impl Inner {
    fn request_shutdown(&self) {
        *self.shutdown_requested.lock().expect("shutdown flag") = true;
        self.shutdown_cv.notify_all();
    }

    fn live_sessions(&self) -> usize {
        self.sessions.lock().expect("session registry").len()
    }
}

/// A running server. Dropping it without [`Server::shutdown`] aborts the
/// process-side threads unjoined; call `shutdown` for a clean stop.
pub struct Server {
    core: Arc<Core>,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    committer: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `db`.
    pub fn start(db: Database, addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let core = Arc::new(Core::new(db, cfg.queue_depth));
        let committer = spawn_committer(core.clone());
        let inner = Arc::new(Inner {
            core: core.clone(),
            cfg,
            addr: bound,
            sessions: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
            next_session: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        });
        journal::record(
            Severity::Info,
            "net.listen",
            vec![
                ("addr", bound.to_string().into()),
                ("max_sessions", cfg.max_sessions.into()),
            ],
        );
        let acceptor = inner.clone();
        let accept = std::thread::Builder::new()
            .name("ridl-accept".into())
            .spawn(move || accept_loop(&listener, &acceptor))?;
        Ok(Server {
            core,
            inner,
            accept: Some(accept),
            committer: Some(committer),
        })
    }

    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The highest commit sequence number assigned so far.
    pub fn commit_seq(&self) -> u64 {
        self.core.commit_seq()
    }

    /// Sessions currently admitted.
    pub fn session_count(&self) -> usize {
        self.inner.live_sessions()
    }

    /// Blocks until a client issues the `shutdown` protocol command.
    pub fn wait_shutdown_request(&self) {
        let mut requested = self.inner.shutdown_requested.lock().expect("shutdown flag");
        while !*requested {
            requested = self
                .inner
                .shutdown_cv
                .wait(requested)
                .expect("shutdown wait");
        }
    }

    /// Stops accepting, disconnects every session, drains the commit
    /// pipeline, flushes and (for durable stores) checkpoints, and
    /// returns the engine. The checkpoint is what makes a post-shutdown
    /// `ridl status` report `clean`.
    pub fn shutdown(mut self) -> Result<Database, EngineError> {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.inner.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // Unblock session readers and join the per-session threads.
        for (_, s) in self
            .inner
            .sessions
            .lock()
            .expect("session registry")
            .drain()
        {
            let _ = s.shutdown(Shutdown::Both);
        }
        let threads: Vec<_> = self
            .inner
            .threads
            .lock()
            .expect("thread registry")
            .drain(..)
            .collect();
        for t in threads {
            let _ = t.join();
        }
        // Drain whatever writes were accepted before the sessions closed.
        self.core.stop();
        if let Some(t) = self.committer.take() {
            let _ = t.join();
        }
        let settle = self.core.with_db(|db| {
            db.flush_wal()?;
            if db.is_durable() {
                db.checkpoint_full()?;
            }
            Ok::<(), EngineError>(())
        });
        journal::record(
            Severity::Info,
            "net.shutdown",
            vec![
                ("commit_seq", self.core.commit_seq().into()),
                ("clean", settle.is_ok().into()),
            ],
        );
        settle?;
        let Server { core, inner, .. } = self;
        drop(inner);
        match Arc::try_unwrap(core) {
            Ok(core) => Ok(core.into_db()),
            Err(_) => Err(EngineError::Io(
                "server threads still hold the engine".into(),
            )),
        }
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    for stream in listener.incoming() {
        if inner.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let m = ridl_obs::metrics();
        if inner.live_sessions() >= inner.cfg.max_sessions {
            m.server_admission_rejects.inc();
            journal::record(
                Severity::Warn,
                "session.reject",
                vec![
                    ("live", inner.live_sessions().into()),
                    ("max", inner.cfg.max_sessions.into()),
                ],
            );
            let mut s = stream;
            let _ = s.write_all(
                format!(
                    "{}\n",
                    err_response(0, ErrorCode::Busy, "session limit reached")
                )
                .as_bytes(),
            );
            let _ = s.shutdown(Shutdown::Both);
            continue;
        }
        // Responses are complete lines; ship them immediately rather than
        // letting Nagle pair them with the client's delayed ACKs.
        let _ = stream.set_nodelay(true);
        let sid = inner.next_session.fetch_add(1, Ordering::SeqCst);
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        {
            let mut sessions = inner.sessions.lock().expect("session registry");
            sessions.insert(sid, registered);
            m.server_sessions.inc();
            m.server_sessions_peak.raise_to(sessions.len() as u64);
        }
        journal::record(
            Severity::Info,
            "session.connect",
            vec![
                ("sid", sid.into()),
                (
                    "peer",
                    stream
                        .peer_addr()
                        .map(|a| a.to_string())
                        .unwrap_or_default()
                        .into(),
                ),
            ],
        );
        let session_inner = inner.clone();
        let handle = std::thread::Builder::new()
            .name(format!("ridl-session-{sid}"))
            .spawn(move || session_threads(sid, stream, &session_inner));
        if let Ok(handle) = handle {
            inner.threads.lock().expect("thread registry").push(handle);
        }
    }
}

/// Runs the session: spawns the reader, executes requests in this (the
/// worker) thread, and unregisters on exit.
fn session_threads(sid: u64, stream: TcpStream, inner: &Arc<Inner>) {
    let writer = Arc::new(Mutex::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            inner
                .sessions
                .lock()
                .expect("session registry")
                .remove(&sid);
            return;
        }
    }));
    let (tx, rx) = mpsc::sync_channel::<(i64, Request)>(inner.cfg.max_inflight);
    let reader_writer = writer.clone();
    let reader = std::thread::Builder::new()
        .name(format!("ridl-read-{sid}"))
        .spawn(move || read_loop(stream, &tx, &reader_writer));

    let mut session = Session {
        sid,
        inner: inner.clone(),
        txn: None,
        requests: 0,
    };
    while let Ok((id, req)) = rx.recv() {
        let quit = matches!(req, Request::Shutdown);
        let line = session.handle(id, req);
        if write_line(&writer, &line).is_err() {
            break;
        }
        if quit {
            inner.request_shutdown();
        }
    }
    if let Ok(reader) = reader {
        // The reader exits when the stream closes; shutdown closes it for
        // us, and a client disconnect already ended it.
        let _ = reader.join();
    }
    inner
        .sessions
        .lock()
        .expect("session registry")
        .remove(&sid);
    journal::record(
        Severity::Info,
        "session.disconnect",
        vec![("sid", sid.into()), ("requests", session.requests.into())],
    );
}

/// Parses request lines and feeds the worker, answering `busy` itself
/// when the in-flight window is full and `proto` on parse errors, on
/// lines that are not UTF-8, and (closing the connection) on a line
/// longer than [`MAX_LINE_BYTES`].
fn read_loop(
    stream: TcpStream,
    tx: &mpsc::SyncSender<(i64, Request)>,
    writer: &Arc<Mutex<TcpStream>>,
) {
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let cap = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(cap).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) if n > MAX_LINE_BYTES => {
                ridl_obs::metrics().server_proto_errors.inc();
                let detail = format!("request line longer than {MAX_LINE_BYTES} bytes");
                let _ = write_line(writer, &err_response(0, ErrorCode::Proto, &detail));
                return;
            }
            Ok(_) => {}
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            ridl_obs::metrics().server_proto_errors.inc();
            let resp = err_response(0, ErrorCode::Proto, "request line is not UTF-8");
            if write_line(writer, &resp).is_err() {
                return;
            }
            continue;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match parse_request(trimmed) {
            Ok((id, req)) => match tx.try_send((id, req)) {
                Ok(()) => {}
                Err(mpsc::TrySendError::Full(_)) => {
                    ridl_obs::metrics().server_busy_rejects.inc();
                    if write_line(
                        writer,
                        &err_response(id, ErrorCode::Busy, "in-flight limit"),
                    )
                    .is_err()
                    {
                        return;
                    }
                }
                Err(mpsc::TrySendError::Disconnected(_)) => return,
            },
            Err((code, detail)) => {
                ridl_obs::metrics().server_proto_errors.inc();
                if write_line(writer, &err_response(0, code, &detail)).is_err() {
                    return;
                }
            }
        }
    }
}

fn write_line(writer: &Arc<Mutex<TcpStream>>, line: &str) -> std::io::Result<()> {
    let mut s = writer.lock().expect("session writer");
    s.write_all(line.as_bytes())?;
    s.write_all(b"\n")
}

struct Session {
    sid: u64,
    inner: Arc<Inner>,
    /// `Some(buffer)` while a server-side transaction is open.
    txn: Option<Vec<WriteOp>>,
    requests: u64,
}

impl Session {
    fn handle(&mut self, id: i64, req: Request) -> String {
        self.requests += 1;
        let m = ridl_obs::metrics();
        m.server_requests.inc();
        journal::record(
            Severity::Debug,
            "session.statement",
            vec![("sid", self.sid.into()), ("cmd", cmd_name(&req).into())],
        );
        match req {
            Request::Hello { client } => {
                journal::record(
                    Severity::Info,
                    "session.hello",
                    vec![
                        ("sid", self.sid.into()),
                        ("client", client.unwrap_or_default().into()),
                    ],
                );
                let snap = self.inner.core.current_snapshot();
                let tables = snap
                    .schema()
                    .tables
                    .iter()
                    .map(|t| Json::str(t.name.clone()))
                    .collect();
                let views = snap.view_names().into_iter().map(Json::str).collect();
                ok_response(
                    id,
                    [
                        ("proto", Json::Int(1)),
                        ("sid", Json::Int(self.sid as i64)),
                        ("schema", Json::str(snap.schema().name.clone())),
                        ("tables", Json::Arr(tables)),
                        ("views", Json::Arr(views)),
                    ],
                )
            }
            Request::Query(q) => self.read(id, |snap| {
                snap.select(&q).map(|rows| {
                    vec![
                        ("rows", encode_rows(&rows)),
                        ("version", Json::Int(snap.version() as i64)),
                    ]
                })
            }),
            Request::Explain(q) => self.read(id, |snap| {
                snap.explain(&q).map(|ex| {
                    let steps = ex
                        .steps
                        .iter()
                        .map(|s| {
                            obj([
                                ("op", Json::str(s.op)),
                                ("target", Json::str(s.target.clone())),
                                ("rows_out", Json::Int(s.rows_out as i64)),
                                ("detail", Json::str(s.detail.clone())),
                            ])
                        })
                        .collect();
                    vec![
                        ("steps", Json::Arr(steps)),
                        ("rows_out", Json::Int(ex.rows_out as i64)),
                    ]
                })
            }),
            Request::View { name } => self.read(id, |snap| {
                snap.select_view(&name).map(|rows| {
                    vec![
                        ("rows", encode_rows(&rows)),
                        ("version", Json::Int(snap.version() as i64)),
                    ]
                })
            }),
            Request::Write(op) => {
                ridl_obs::metrics().server_writes.inc();
                if let Some(buf) = self.txn.as_mut() {
                    if buf.len() >= MAX_TXN_OPS {
                        ridl_obs::metrics().server_proto_errors.inc();
                        let detail = format!("transaction holds {MAX_TXN_OPS} ops already");
                        return err_response(id, ErrorCode::Proto, &detail);
                    }
                    buf.push(op);
                    return ok_response(id, [("buffered", Json::Bool(true))]);
                }
                self.submit(id, JobKind::Single(op))
            }
            Request::Begin => {
                if self.txn.is_some() {
                    return err_response(id, ErrorCode::Txn, "transaction already open");
                }
                self.txn = Some(Vec::new());
                ok_response(id, [])
            }
            Request::Commit => match self.txn.take() {
                None => err_response(id, ErrorCode::Txn, "no open transaction"),
                Some(ops) => {
                    ridl_obs::metrics().server_writes.inc();
                    self.submit(id, JobKind::Txn(ops))
                }
            },
            Request::Rollback => match self.txn.take() {
                None => err_response(id, ErrorCode::Txn, "no open transaction"),
                Some(ops) => ok_response(id, [("dropped", Json::Int(ops.len() as i64))]),
            },
            Request::Status => {
                let snap = self.inner.core.current_snapshot();
                ok_response(
                    id,
                    [
                        ("sessions", Json::Int(self.inner.live_sessions() as i64)),
                        (
                            "max_sessions",
                            Json::Int(self.inner.cfg.max_sessions as i64),
                        ),
                        ("commit_seq", Json::Int(self.inner.core.commit_seq() as i64)),
                        ("version", Json::Int(snap.version() as i64)),
                        ("rows", Json::Int(snap.num_rows() as i64)),
                    ],
                )
            }
            Request::Shutdown => ok_response(id, [("stopping", Json::Bool(true))]),
        }
    }

    /// Serves a read from the latest published snapshot, recording its
    /// latency in the always-on `server.read_ns` histogram (the "readers
    /// are never blocked by the writer" evidence).
    fn read(
        &self,
        id: i64,
        f: impl FnOnce(&ridl_engine::ReadSnapshot) -> Result<Vec<(&'static str, Json)>, EngineError>,
    ) -> String {
        ridl_obs::metrics().server_reads.inc();
        let start = Instant::now();
        let snap = self.inner.core.current_snapshot();
        let out = f(&snap);
        ridl_obs::hist::record_named(
            "server.read_ns",
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        match out {
            Ok(fields) => ok_response(id, fields),
            Err(e) => engine_err_response(id, &e),
        }
    }

    /// Submits a write job and waits for the committer's verdict.
    fn submit(&self, id: i64, kind: JobKind) -> String {
        match self.inner.core.submit(kind) {
            Err(detail) => err_response(id, ErrorCode::Busy, detail),
            Ok(rx) => match rx.recv() {
                Ok(Ok(c)) => ok_response(
                    id,
                    [
                        ("seq", Json::Int(c.seq as i64)),
                        ("changed", Json::Int(c.changed as i64)),
                    ],
                ),
                Ok(Err(e)) => engine_err_response(id, &e),
                Err(_) => err_response(id, ErrorCode::Shutdown, "committer stopped"),
            },
        }
    }
}

fn cmd_name(req: &Request) -> &'static str {
    match req {
        Request::Hello { .. } => "hello",
        Request::Query(_) => "query",
        Request::Explain(_) => "explain",
        Request::View { .. } => "view",
        Request::Write(WriteOp::Insert { .. }) => "insert",
        Request::Write(WriteOp::Delete { .. }) => "delete",
        Request::Write(WriteOp::Update { .. }) => "update",
        Request::Write(WriteOp::Batch { .. }) => "batch",
        Request::Begin => "begin",
        Request::Commit => "commit",
        Request::Rollback => "rollback",
        Request::Status => "status",
        Request::Shutdown => "shutdown",
    }
}
