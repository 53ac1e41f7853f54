//! The serialized cross-session commit pipeline.
//!
//! All writes from all sessions funnel into one queue drained by a single
//! committer thread. The committer grabs whatever jobs are queued,
//! applies them back to back under one engine lock hold — each statement
//! appends its WAL unit *without* fsyncing (the store is opened with
//! [`ridl_engine::FsyncPolicy::Never`]) — then issues **one**
//! `flush_wal` fsync for the whole batch. That turns the engine's
//! intra-statement group commit into a cross-session one: N concurrent
//! writers cost one fsync, and the `wal.group_batch` histogram records N.
//!
//! Invariants (DESIGN.md §13):
//! * writes are serialized — the engine never sees two mutating
//!   statements interleaved, so all single-handle reasoning holds;
//! * a job observes every earlier job's effects (the queue is FIFO);
//! * the published snapshot only ever advances at batch boundaries, after
//!   the batch's fsync — readers never observe a state whose WAL is not
//!   yet durable;
//! * the queue is bounded by structure, not by a knob: a session submits
//!   one job and blocks on its verdict before reading its next request,
//!   so the queue holds at most `max_sessions` jobs of at most
//!   [`crate::MAX_TXN_OPS`] ops each, and a pipelining client's unread
//!   lines wait in its own socket buffer. The only refusal is a submit
//!   after [`Core::stop`], answered `shutdown`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

use ridl_engine::snapshot::ReadSnapshot;
use ridl_engine::{Database, EngineError};
use ridl_obs::journal;
use ridl_obs::Severity;

use crate::json::Json;
use crate::proto::{engine_err_response, err_response, ok_response, ErrorCode, WriteOp};

/// What a committed job reports back to its session.
#[derive(Clone, PartialEq, Debug)]
pub struct Committed {
    /// The global commit sequence number assigned to this job. Strictly
    /// increasing across the whole server; the linearizability tests
    /// replay committed history in this order.
    pub seq: u64,
    /// How many row operations changed the state.
    pub changed: u64,
}

/// One queued write: a single statement, or a buffered transaction
/// executed as one atomic engine transaction.
pub(crate) enum JobKind {
    /// One statement.
    Single(WriteOp),
    /// A `begin`…`commit` buffer: all ops validate and commit as one
    /// engine transaction (one WAL unit).
    Txn(Vec<WriteOp>),
}

pub(crate) struct WriteJob {
    pub kind: JobKind,
    pub reply: mpsc::Sender<Result<Committed, EngineError>>,
}

/// The pipeline's shared half: the engine, the published snapshot, and
/// the job queue.
pub(crate) struct Core {
    db: Mutex<Database>,
    snapshot: RwLock<Arc<ReadSnapshot>>,
    queue: Mutex<VecDeque<WriteJob>>,
    queue_cv: Condvar,
    commit_seq: AtomicU64,
    stopping: AtomicBool,
}

impl Core {
    pub fn new(db: Database) -> Self {
        let snapshot = Arc::new(db.snapshot_at(0));
        Self {
            db: Mutex::new(db),
            snapshot: RwLock::new(snapshot),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            commit_seq: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
        }
    }

    /// The latest published snapshot — what read statements execute
    /// against. Never blocks on the writer (the lock is held only for the
    /// `Arc` clone).
    pub fn current_snapshot(&self) -> Arc<ReadSnapshot> {
        self.snapshot.read().expect("snapshot lock").clone()
    }

    /// The highest commit sequence number assigned so far.
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq.load(Ordering::SeqCst)
    }

    /// Enqueues a write; `None` once the server is stopping.
    pub fn submit(&self, kind: JobKind) -> Option<mpsc::Receiver<Result<Committed, EngineError>>> {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.queue.lock().expect("queue lock");
            if self.stopping.load(Ordering::SeqCst) {
                return None;
            }
            q.push_back(WriteJob { kind, reply: tx });
        }
        self.queue_cv.notify_one();
        Some(rx)
    }

    /// Submits a write, waits for the committer's verdict and renders it
    /// as the response line for request `id`.
    pub fn commit(&self, id: i64, kind: JobKind) -> String {
        let Some(rx) = self.submit(kind) else {
            return err_response(id, ErrorCode::Shutdown, "server is shutting down");
        };
        match rx.recv() {
            Ok(Ok(c)) => ok_response(
                id,
                [
                    ("seq", Json::Int(c.seq as i64)),
                    ("changed", Json::Int(c.changed as i64)),
                ],
            ),
            Ok(Err(e)) => engine_err_response(id, &e),
            Err(_) => err_response(id, ErrorCode::Shutdown, "committer stopped"),
        }
    }

    /// Tells the committer to drain what is queued and exit.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Runs `f` with the engine locked (status reads, final checkpoint).
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db.lock().expect("db lock"))
    }

    /// Takes the engine back out. Panics if sessions still hold the core.
    pub fn into_db(self) -> Database {
        self.db.into_inner().expect("db lock")
    }
}

/// Starts the committer thread.
pub(crate) fn spawn_committer(core: Arc<Core>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("ridl-committer".into())
        .spawn(move || committer_loop(&core))
        .expect("spawn committer")
}

fn committer_loop(core: &Core) {
    loop {
        let batch: Vec<WriteJob> = {
            let mut q = core.queue.lock().expect("queue lock");
            while q.is_empty() && !core.stopping.load(Ordering::SeqCst) {
                q = core.queue_cv.wait(q).expect("queue wait");
            }
            if q.is_empty() {
                return; // stopping, nothing left to drain
            }
            q.drain(..).collect()
        };
        let m = ridl_obs::metrics();
        m.server_commit_batches.inc();
        m.server_commit_batch_ops.add(batch.len() as u64);
        ridl_obs::hist::record_named("server.commit_batch", batch.len() as u64);

        let mut db = core.db.lock().expect("db lock");
        let results: Vec<Result<u64, EngineError>> = batch
            .iter()
            .map(|job| execute(&mut db, &job.kind))
            .collect();
        // One fsync for the whole batch — the cross-session group commit.
        let flush = db.flush_wal();
        let seq_base = core.commit_seq.load(Ordering::SeqCst);
        let committed = results.iter().filter(|r| r.is_ok()).count() as u64;
        // Publish the post-batch snapshot before answering the sessions,
        // so a client that sees its commit acknowledged also sees its
        // write in any later read (read-your-writes across the protocol).
        if committed > 0 && flush.is_ok() {
            core.commit_seq
                .store(seq_base + committed, Ordering::SeqCst);
            let snap = Arc::new(db.snapshot_at(seq_base + committed));
            *core.snapshot.write().expect("snapshot lock") = snap;
        }
        drop(db);
        let mut seq = seq_base;
        for (job, result) in batch.into_iter().zip(results) {
            let outcome = match (result, &flush) {
                (Ok(changed), Ok(())) => {
                    seq += 1;
                    Ok(Committed { seq, changed })
                }
                (Ok(_), Err(e)) => Err(e.clone()),
                (Err(e), _) => Err(e),
            };
            // A dropped receiver (session died) is fine.
            let _ = job.reply.send(outcome);
        }
        if let Err(e) = &flush {
            journal::record(
                Severity::Error,
                "session.flush_fail",
                vec![("detail", ridl_obs::AttrValue::from(e.to_string()))],
            );
        }
    }
}

/// Applies one job to the engine. Errors roll back per engine semantics
/// (single statements revert themselves; transactions roll back here).
fn execute(db: &mut Database, kind: &JobKind) -> Result<u64, EngineError> {
    match kind {
        JobKind::Single(op) => execute_op(db, op),
        JobKind::Txn(ops) => {
            db.begin();
            let mut changed = 0u64;
            for op in ops {
                match execute_op(db, op) {
                    Ok(n) => changed += n,
                    Err(e) => {
                        db.rollback()?;
                        return Err(e);
                    }
                }
            }
            db.commit()?;
            Ok(changed)
        }
    }
}

pub(crate) fn execute_op(db: &mut Database, op: &WriteOp) -> Result<u64, EngineError> {
    match op {
        WriteOp::Insert { table, row } => {
            db.insert(table, row.clone())?;
            Ok(1)
        }
        WriteOp::Delete { table, preds } => Ok(db.delete_where(table, preds)? as u64),
        WriteOp::Update { table, preds, sets } => {
            let sets: Vec<(&str, Option<ridl_brm::Value>)> =
                sets.iter().map(|(c, v)| (c.as_str(), v.clone())).collect();
            Ok(db.update_where(table, preds, &sets)? as u64)
        }
        WriteOp::Batch { ops } => Ok(db.apply_batch(ops.iter().cloned())? as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ridl_brm::{DataType, Value};
    use ridl_relational::{Column, RelConstraintKind, RelSchema, Table};

    fn sample_db() -> Database {
        let mut s = RelSchema::new("t");
        let d = s.domain("D", DataType::Char(16));
        let paper = s.add_table(Table::new(
            "Paper",
            vec![
                Column::not_null("Paper_Id", d),
                Column::nullable("Program_Id", d),
            ],
        ));
        s.add_named(RelConstraintKind::PrimaryKey {
            table: paper,
            cols: vec![0],
        });
        Database::create(s).unwrap()
    }

    fn insert(key: &str) -> JobKind {
        JobKind::Single(WriteOp::Insert {
            table: "Paper".into(),
            row: vec![Some(Value::str(key)), None],
        })
    }

    /// Jobs queued before the committer starts drain as ONE batch: one
    /// engine lock hold, one flush, one snapshot publication — the
    /// cross-session group commit, deterministically.
    #[test]
    fn queued_jobs_drain_as_one_group_commit_batch() {
        let core = Arc::new(Core::new(sample_db()));
        let before = core.current_snapshot();
        let replies: Vec<_> = (0..5)
            .map(|i| core.submit(insert(&format!("P{i}"))).unwrap())
            .collect();
        let committer = spawn_committer(core.clone());
        let seqs: Vec<u64> = replies
            .into_iter()
            .map(|rx| rx.recv().unwrap().unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        // The snapshot advanced once, to the post-batch state.
        let after = core.current_snapshot();
        assert_eq!(before.num_rows(), 0);
        assert_eq!(after.num_rows(), 5);
        assert_eq!(after.version(), 5);
        core.stop();
        committer.join().unwrap();
    }

    /// A failing job inside a batch fails alone; its neighbours commit.
    #[test]
    fn per_job_errors_do_not_poison_the_batch() {
        let core = Arc::new(Core::new(sample_db()));
        let a = core.submit(insert("DUP")).unwrap();
        let b = core.submit(insert("DUP")).unwrap(); // primary-key clash
        let c = core.submit(insert("OK")).unwrap();
        let committer = spawn_committer(core.clone());
        assert_eq!(a.recv().unwrap().unwrap().seq, 1);
        assert!(matches!(
            b.recv().unwrap(),
            Err(EngineError::ConstraintViolation(_))
        ));
        assert_eq!(c.recv().unwrap().unwrap().seq, 2);
        assert_eq!(core.current_snapshot().num_rows(), 2);
        core.stop();
        committer.join().unwrap();
    }

    /// Stopping is the pipeline's only refusal, and it reads `shutdown`.
    #[test]
    fn submit_after_stop_is_refused_as_shutdown() {
        let core = Core::new(sample_db());
        core.stop();
        assert!(core.submit(insert("A")).is_none());
        let line = crate::json::parse(&core.commit(7, insert("A"))).unwrap();
        assert_eq!(line.get("id").and_then(Json::as_i64), Some(7));
        assert_eq!(line.get("error").and_then(Json::as_str), Some("shutdown"));
        assert_eq!(core.into_db().state().num_rows(), 0);
    }

    /// A transaction job is atomic: one bad op rolls the whole unit back.
    #[test]
    fn txn_jobs_are_atomic() {
        let core = Arc::new(Core::new(sample_db()));
        let good = core.submit(insert("BASE")).unwrap();
        let txn = core
            .submit(JobKind::Txn(vec![
                WriteOp::Insert {
                    table: "Paper".into(),
                    row: vec![Some(Value::str("T1")), None],
                },
                WriteOp::Insert {
                    table: "Paper".into(),
                    row: vec![Some(Value::str("BASE")), None], // clash
                },
            ]))
            .unwrap();
        let committer = spawn_committer(core.clone());
        assert!(good.recv().unwrap().is_ok());
        assert!(txn.recv().unwrap().is_err());
        assert_eq!(core.current_snapshot().num_rows(), 1);
        core.stop();
        committer.join().unwrap();
    }
}
