//! The worker loop: connect (with retry), execute assigned leases over an
//! [`mc_par::WorkerPool`], stream records back in unit order, survive
//! coordinator restarts by reconnecting.
//!
//! The coordinator may queue a second lease behind the one a worker runs.
//! A reader thread takes every frame off the connection as it arrives,
//! so the queued `Assign` waits in memory, and the lease loop starts it
//! as soon as it has sent the last lease's `LeaseDone`.
//!
//! A worker is stateless between sessions: every `Assign` carries the
//! full spec (the runner is built from it) and the lease's
//! already-complete units, so a worker that reconnects — to the same
//! coordinator or a restarted one — needs no local history. Within a
//! session, consecutive leases of one spec share one runner. The only
//! state that spans reconnects is the retry budget and the
//! simulated-death record counter.

use crate::stop::StopFlag;
use crate::wire::{encode_frame, read_frame, write_frame, Message};
use crate::ServeError;
use mc_exp::run::Shard;
use mc_exp::spec::WorkUnit;
use mc_exp::store::UnitRecord;
use mc_exp::{CampaignSpec, ExpError, UnitRunner};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Builds the unit runner for a spec received in an `Assign`. The CLI
/// uses [`CatalogFactory`] (specs must name catalog campaigns); tests
/// hand in seed-pure closures.
pub trait RunnerFactory: Sync {
    /// Builds a runner that will compute this spec's units.
    ///
    /// # Errors
    ///
    /// Specs this factory cannot reconstruct a runner for.
    fn runner_for(
        &self,
        spec: &CampaignSpec,
    ) -> Result<Box<dyn UnitRunner + Send + Sync>, ExpError>;
}

/// The production factory: rebuilds catalog campaigns via
/// [`mc_exp::catalog::rebuild`], which verifies the received spec is
/// fingerprint-identical to what the catalog produces.
#[derive(Debug, Clone, Copy, Default)]
pub struct CatalogFactory;

impl RunnerFactory for CatalogFactory {
    fn runner_for(
        &self,
        spec: &CampaignSpec,
    ) -> Result<Box<dyn UnitRunner + Send + Sync>, ExpError> {
        Ok(mc_exp::catalog::rebuild(spec)?.runner)
    }
}

/// Where the coordinator lives. `File` re-reads the path on every
/// connection attempt, so a restarted coordinator on a new port is found
/// by rewriting one file; `Shared` is the in-process equivalent for the
/// cluster harness.
///
/// A source that resolves to *nothing* (missing/empty file, blank cell)
/// means the address has been withdrawn: the worker exits cleanly rather
/// than burning its retry budget — emptying the address file is how an
/// operator decommissions a worker fleet.
#[derive(Debug, Clone)]
pub enum AddrSource {
    /// A fixed `host:port`.
    Fixed(String),
    /// A file whose (trimmed) contents are the current `host:port`.
    File(PathBuf),
    /// A shared cell the test harness updates across coordinator
    /// generations.
    Shared(Arc<Mutex<String>>),
}

impl AddrSource {
    /// The current address, if resolvable.
    #[must_use]
    pub fn current(&self) -> Option<String> {
        match self {
            AddrSource::Fixed(addr) => Some(addr.clone()),
            AddrSource::File(path) => {
                let text = std::fs::read_to_string(path).ok()?;
                let addr = text.trim();
                (!addr.is_empty()).then(|| addr.to_string())
            }
            AddrSource::Shared(cell) => {
                let addr = cell.lock().expect("address cell poisoned").clone();
                (!addr.is_empty()).then_some(addr)
            }
        }
    }
}

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Display name sent in `Hello`.
    pub name: String,
    /// Thread budget for lease execution (0 = all cores), split between
    /// unit fan-out and per-unit inner parallelism by
    /// [`mc_par::ThreadBudget`].
    pub threads: usize,
    /// Heartbeat send interval.
    pub heartbeat: Duration,
    /// Total budget of consecutive failed connection attempts before the
    /// worker gives up (spans coordinator restarts).
    pub retry: Duration,
    /// Pause between connection attempts.
    pub retry_interval: Duration,
    /// Per-unit pacing delay — stretches tiny campaigns so CI can kill
    /// processes mid-run. Zero in production.
    pub throttle: Duration,
    /// Test knob: slam the connection shut (the in-process stand-in for
    /// SIGKILL) after streaming this many records, counted across
    /// sessions. `None` in production.
    pub die_after_records: Option<u64>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            name: "worker".into(),
            threads: 1,
            heartbeat: Duration::from_millis(500),
            retry: Duration::from_secs(5),
            retry_interval: Duration::from_millis(50),
            throttle: Duration::ZERO,
            die_after_records: None,
        }
    }
}

/// What one worker did before exiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSummary {
    /// Leases fully streamed (`LeaseDone` sent).
    pub leases: u64,
    /// Records streamed to a coordinator.
    pub records: u64,
    /// Sessions re-established after a lost connection.
    pub reconnects: u64,
    /// Whether the simulated-death knob fired.
    pub died: bool,
}

enum SessionEnd {
    /// Coordinator said `Shutdown`: the campaign is complete.
    Shutdown,
    /// The connection died; reconnect and continue.
    Disconnected,
    /// The simulated-death knob fired.
    Died,
}

/// Runs a worker until the coordinator shuts it down, the address is
/// withdrawn, the retry budget runs out, or the simulated-death knob
/// fires.
///
/// # Errors
///
/// Exhausted connection retries, unreconstructable specs, or a failing
/// unit runner. Lost connections are not errors — the worker reconnects.
pub fn run_worker(
    addr: &AddrSource,
    cfg: &WorkerConfig,
    factory: &dyn RunnerFactory,
) -> Result<WorkerSummary, ServeError> {
    let mut summary = WorkerSummary::default();
    let mut sent_total: u64 = 0;
    let mut first = true;
    loop {
        let Some(stream) = connect_with_retry(addr, cfg)? else {
            // Withdrawn address: the cluster is over and no coordinator
            // is coming back. Not an error.
            return Ok(summary);
        };
        if !first {
            summary.reconnects += 1;
        }
        first = false;
        match session(stream, cfg, factory, &mut summary, &mut sent_total)? {
            SessionEnd::Shutdown => return Ok(summary),
            SessionEnd::Died => {
                summary.died = true;
                return Ok(summary);
            }
            SessionEnd::Disconnected => {}
        }
    }
}

/// Connects to the coordinator, retrying for the configured budget —
/// which is what lets workers outlive a coordinator restart. `Ok(None)`
/// means the address was withdrawn (see [`AddrSource`]).
#[expect(
    clippy::disallowed_methods,
    reason = "retry budgets and record flushing pace by the wall clock; unit computation is seed-deterministic and timing never enters a record"
)]
fn connect_with_retry(
    addr: &AddrSource,
    cfg: &WorkerConfig,
) -> Result<Option<TcpStream>, ServeError> {
    let deadline = Instant::now() + cfg.retry;
    loop {
        let Some(target) = addr.current() else {
            return Ok(None);
        };
        if let Ok(stream) = TcpStream::connect(&target) {
            let _ = stream.set_nodelay(true);
            return Ok(Some(stream));
        }
        if Instant::now() >= deadline {
            return Err(ServeError::Config(format!(
                "could not reach a coordinator within {:?}",
                cfg.retry
            )));
        }
        std::thread::sleep(cfg.retry_interval);
    }
}

/// One connected session: register, heartbeat, execute assignments.
///
/// A thread of its own reads the connection and hands each frame to the
/// lease loop. The coordinator queues a worker's next `Assign` while the
/// worker streams its current lease, and it writes that frame from the
/// thread that reads this connection's records. A lease loop that read
/// the socket only between leases would leave a large `Assign` unread;
/// once the socket buffers filled, the coordinator would stop reading
/// records and the worker would block writing them.
fn session(
    stream: TcpStream,
    cfg: &WorkerConfig,
    factory: &dyn RunnerFactory,
    summary: &mut WorkerSummary,
    sent_total: &mut u64,
) -> Result<SessionEnd, ServeError> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(Mutex::new(stream));
    let ended = Arc::new(StopFlag::default());

    let hb_writer = Arc::clone(&writer);
    let hb_ended = Arc::clone(&ended);
    let hb_interval = cfg.heartbeat;
    let heartbeat = std::thread::spawn(move || {
        let step = (hb_interval / 4).max(Duration::from_millis(5));
        let mut since_beat = Duration::ZERO;
        // The session's end raises `ended`, cutting the sleep short so
        // the join below does not wait out a step.
        while !hb_ended.sleep(step) {
            since_beat += step;
            if since_beat < hb_interval {
                continue;
            }
            since_beat = Duration::ZERO;
            let mut w = hb_writer.lock().expect("writer poisoned");
            if write_frame(&mut *w, &Message::Heartbeat).is_err() {
                break;
            }
        }
    });

    // The channel closes at a clean EOF, a socket error or a malformed
    // frame: each ends the session as a lost connection.
    let (frames_tx, frames) = mpsc::channel();
    let reader_thread = std::thread::spawn(move || {
        while let Ok(Some(msg)) = read_frame(&mut reader) {
            if frames_tx.send(msg).is_err() {
                break;
            }
        }
    });

    let end = session_inner(&frames, &writer, cfg, factory, summary, sent_total);

    ended.raise();
    {
        // Shutting the socket down also ends the reader's blocking read.
        let w = writer.lock().expect("writer poisoned");
        let _ = w.shutdown(Shutdown::Both);
    }
    let _ = heartbeat.join();
    let _ = reader_thread.join();
    end
}

fn session_inner(
    frames: &mpsc::Receiver<Message>,
    writer: &Arc<Mutex<TcpStream>>,
    cfg: &WorkerConfig,
    factory: &dyn RunnerFactory,
    summary: &mut WorkerSummary,
    sent_total: &mut u64,
) -> Result<SessionEnd, ServeError> {
    {
        let mut w = writer.lock().expect("writer poisoned");
        if write_frame(
            &mut *w,
            &Message::Hello {
                worker: cfg.name.clone(),
                threads: cfg.threads,
            },
        )
        .is_err()
        {
            return Ok(SessionEnd::Disconnected);
        }
    }
    // The session's last spec and its runner: the leases of one campaign
    // share the runner, with whatever it keeps between units.
    let mut last: Option<(CampaignSpec, Box<dyn UnitRunner + Send + Sync>)> = None;
    loop {
        let frame = {
            let _wait_span = mc_obs::span("serve.wait");
            frames.recv()
        };
        let Ok(msg) = frame else {
            return Ok(SessionEnd::Disconnected);
        };
        match msg {
            Message::Shutdown => return Ok(SessionEnd::Shutdown),
            Message::Assign {
                lease,
                spec,
                shard_index,
                shard_count,
                done,
            } => {
                let _lease_span = mc_obs::span("serve.lease");
                let runner = match last.take() {
                    Some((held, runner)) if held == spec => runner,
                    _ => factory.runner_for(&spec)?,
                };
                let end = run_lease(
                    lease,
                    &spec,
                    Shard {
                        index: shard_index,
                        count: shard_count,
                    },
                    &done.into_iter().collect(),
                    writer,
                    cfg,
                    runner.as_ref(),
                    summary,
                    sent_total,
                )?;
                last = Some((spec, runner));
                match end {
                    LeaseEnd::Streamed => summary.leases += 1,
                    LeaseEnd::Disconnected => return Ok(SessionEnd::Disconnected),
                    LeaseEnd::Died => return Ok(SessionEnd::Died),
                }
            }
            // `Welcome`, and out-of-protocol chatter: ignore.
            _ => {}
        }
    }
}

enum LeaseEnd {
    /// Every pending unit streamed and `LeaseDone` sent.
    Streamed,
    /// The connection died mid-lease.
    Disconnected,
    /// The simulated-death knob fired mid-lease.
    Died,
}

/// The sink writes its buffered records once this long has passed since
/// its last write. A unit slower than this goes out the moment it
/// completes; a run of fast units shares one write, where one write per
/// record would wake the coordinator's reader for each. A fast record can
/// wait for the next completion, which at worst costs a recomputation
/// if the worker dies meanwhile.
const FLUSH_INTERVAL: Duration = Duration::from_millis(1);

/// The sink also writes once its buffer holds this many bytes, so a burst
/// of fast records never waits long or grows the buffer without bound.
const FLUSH_BYTES: usize = 64 * 1024;

/// A connection the sink writes to and, for the simulated-death knob,
/// slams shut.
trait Link: Write {
    /// Shuts the connection down in both directions.
    fn sever(&mut self);
}

impl Link for TcpStream {
    fn sever(&mut self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// Shared streaming state: records go to the coordinator in unit order
/// (out-of-order completions park, exactly like the runner's store sink),
/// which makes the simulated-death prefix deterministic. In-order frames
/// collect in one buffer, written per [`FLUSH_INTERVAL`] and
/// [`FLUSH_BYTES`], and always before `LeaseDone`, before the death knob
/// fires and when the lease ends. The bytes on the wire are those of one
/// [`write_frame`] per message.
struct StreamSink<'a, W> {
    writer: &'a Mutex<W>,
    lease: u64,
    next: usize,
    parked: BTreeMap<usize, UnitRecord>,
    /// Encoded frames not yet written, and how many records they hold.
    buf: Vec<u8>,
    buffered: u64,
    last_write: Instant,
    sent: u64,
    die_after: Option<u64>,
    sent_total: u64,
    end: Option<LeaseEnd>,
}

impl<'a, W: Link> StreamSink<'a, W> {
    #[expect(
        clippy::disallowed_methods,
        reason = "retry budgets and record flushing pace by the wall clock; unit computation is seed-deterministic and timing never enters a record"
    )]
    fn new(writer: &'a Mutex<W>, lease: u64, die_after: Option<u64>, sent_total: u64) -> Self {
        StreamSink {
            writer,
            lease,
            next: 0,
            parked: BTreeMap::new(),
            buf: Vec::new(),
            buffered: 0,
            last_write: Instant::now(),
            sent: 0,
            die_after,
            sent_total,
            end: None,
        }
    }

    /// Accepts the `pos`-th pending unit's record and buffers everything
    /// now in order. `false` stops the pool.
    fn complete(&mut self, pos: usize, record: UnitRecord) -> bool {
        if self.end.is_some() {
            return false;
        }
        self.parked.insert(pos, record);
        while let Some(record) = self.parked.remove(&self.next) {
            if let Some(limit) = self.die_after {
                if self.sent_total + self.buffered >= limit {
                    // Simulated SIGKILL: deliver what is buffered, then
                    // slam the socket mid-protocol with no goodbye.
                    if self.write_out() {
                        self.writer.lock().expect("writer poisoned").sever();
                        self.end = Some(LeaseEnd::Died);
                    }
                    return false;
                }
            }
            let frame = Message::Record {
                lease: self.lease,
                record,
            };
            if encode_frame(&frame, &mut self.buf).is_err() {
                self.end = Some(LeaseEnd::Disconnected);
                return false;
            }
            self.buffered += 1;
            self.next += 1;
        }
        if self.last_write.elapsed() >= FLUSH_INTERVAL || self.buf.len() >= FLUSH_BYTES {
            return self.write_out();
        }
        true
    }

    /// Writes the buffer to the connection; `false` when that fails.
    #[expect(
        clippy::disallowed_methods,
        reason = "retry budgets and record flushing pace by the wall clock; unit computation is seed-deterministic and timing never enters a record"
    )]
    fn write_out(&mut self) -> bool {
        if !self.buf.is_empty() {
            let mut w = self.writer.lock().expect("writer poisoned");
            let written = w.write_all(&self.buf).and_then(|()| w.flush());
            drop(w);
            if written.is_err() {
                self.end = Some(LeaseEnd::Disconnected);
                return false;
            }
            mc_obs::counter("serve.sent", self.buffered);
            self.sent += self.buffered;
            self.sent_total += self.buffered;
            self.buffered = 0;
            self.buf.clear();
        }
        self.last_write = Instant::now();
        true
    }

    /// Ends the lease: writes what is still buffered, followed by
    /// `LeaseDone` when every pending unit was streamed.
    fn finish(&mut self, streamed: bool) -> LeaseEnd {
        if let Some(end) = self.end.take() {
            return end;
        }
        if streamed
            && encode_frame(&Message::LeaseDone { lease: self.lease }, &mut self.buf).is_err()
        {
            return LeaseEnd::Disconnected;
        }
        if self.write_out() {
            LeaseEnd::Streamed
        } else {
            LeaseEnd::Disconnected
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_lease(
    lease: u64,
    spec: &CampaignSpec,
    shard: Shard,
    done: &BTreeSet<usize>,
    writer: &Arc<Mutex<TcpStream>>,
    cfg: &WorkerConfig,
    runner: &dyn UnitRunner,
    summary: &mut WorkerSummary,
    sent_total: &mut u64,
) -> Result<LeaseEnd, ServeError> {
    let total = spec.total_units();
    let pending: Vec<WorkUnit> = (0..total)
        .filter(|&u| shard.owns(u) && !done.contains(&u))
        .map(|u| spec.unit(u))
        .collect();

    let (outer, inner) = mc_par::ThreadBudget::explicit(cfg.threads).split(pending.len());
    let inner_threads = inner.get();
    let pool = mc_par::WorkerPool::new(outer);

    let sink = Mutex::new(StreamSink::new(
        &**writer,
        lease,
        cfg.die_after_records,
        *sent_total,
    ));
    let error: Mutex<Option<ExpError>> = Mutex::new(None);

    pool.for_each_while(pending.len(), |pos| {
        let unit = pending[pos];
        let _unit_span = mc_obs::span("serve.unit");
        match runner.run_unit(&unit, inner_threads) {
            Ok(metrics) => {
                if !cfg.throttle.is_zero() {
                    std::thread::sleep(cfg.throttle);
                }
                let record = UnitRecord {
                    unit: unit.index,
                    point: unit.point,
                    replica: unit.replica,
                    seed: unit.seed,
                    metrics,
                };
                // A frame that does not parse would only make the
                // coordinator drop the connection and reassign the unit,
                // so a NaN fails the worker before it is framed.
                match record.check_finite() {
                    Ok(()) => sink.lock().expect("sink poisoned").complete(pos, record),
                    Err(e) => {
                        *error.lock().expect("error poisoned") = Some(e);
                        false
                    }
                }
            }
            Err(e) => {
                *error.lock().expect("error poisoned") = Some(e);
                false
            }
        }
    });

    let error = error.into_inner().expect("error poisoned");
    let mut sink = sink.into_inner().expect("sink poisoned");
    let end = sink.finish(error.is_none());
    summary.records += sink.sent;
    *sent_total = sink.sent_total;
    match error {
        Some(e) => Err(ServeError::Exp(e)),
        None => Ok(end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_exp::store::Metric;

    /// An in-memory connection that counts its writes.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        writes: usize,
        severed: bool,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Link for Recorder {
        fn sever(&mut self) {
            self.severed = true;
        }
    }

    fn record(unit: usize) -> UnitRecord {
        UnitRecord {
            unit,
            point: unit / 4,
            replica: unit % 4,
            seed: 1000 + unit as u64,
            metrics: vec![Metric::new("objective", unit as f64 / 3.0)],
        }
    }

    /// What one `write_frame` per message puts on the wire.
    fn framed(messages: &[Message]) -> Vec<u8> {
        let mut out = Vec::new();
        for msg in messages {
            write_frame(&mut out, msg).unwrap();
        }
        out
    }

    fn records(lease: u64, units: std::ops::Range<usize>) -> Vec<Message> {
        units
            .map(|u| Message::Record {
                lease,
                record: record(u),
            })
            .collect()
    }

    #[test]
    fn fast_records_share_writes_and_keep_the_frame_bytes() {
        let conn = Mutex::new(Recorder::default());
        let mut sink = StreamSink::new(&conn, 7, None, 0);
        // Out of order: the sink parks unit 1 until unit 0 arrives.
        assert!(sink.complete(1, record(1)));
        assert!(sink.complete(0, record(0)));
        for pos in 2..200 {
            assert!(sink.complete(pos, record(pos)));
        }
        assert!(matches!(sink.finish(true), LeaseEnd::Streamed));
        assert_eq!(sink.sent, 200);
        let conn = conn.into_inner().unwrap();
        assert!(conn.writes < 200, "{} writes for 200 records", conn.writes);
        let mut expected = records(7, 0..200);
        expected.push(Message::LeaseDone { lease: 7 });
        assert_eq!(
            conn.bytes,
            framed(&expected),
            "LeaseDone follows the last record"
        );
    }

    #[test]
    fn a_slow_record_goes_out_at_once() {
        let conn = Mutex::new(Recorder::default());
        let mut sink = StreamSink::new(&conn, 0, None, 0);
        std::thread::sleep(FLUSH_INTERVAL);
        assert!(sink.complete(0, record(0)));
        assert_eq!(conn.lock().unwrap().bytes, framed(&records(0, 0..1)));
    }

    #[test]
    fn the_death_knob_delivers_exactly_its_records() {
        for (before, limit) in [(0, 3), (2, 5), (0, 0)] {
            let conn = Mutex::new(Recorder::default());
            let mut sink = StreamSink::new(&conn, 1, Some(limit), before);
            let mut pos = 0;
            while sink.complete(pos, record(pos)) {
                pos += 1;
            }
            assert!(matches!(sink.finish(true), LeaseEnd::Died));
            assert_eq!(sink.sent_total, limit);
            let conn = conn.into_inner().unwrap();
            assert!(conn.severed);
            let k = usize::try_from(limit - before).unwrap();
            assert_eq!(conn.bytes, framed(&records(1, 0..k)), "{before}/{limit}");
        }
    }

    /// Counts `runner_for` calls; its runners report each unit's seed.
    #[derive(Default)]
    struct CountingFactory(std::sync::atomic::AtomicUsize);

    impl RunnerFactory for CountingFactory {
        fn runner_for(
            &self,
            _spec: &CampaignSpec,
        ) -> Result<Box<dyn UnitRunner + Send + Sync>, ExpError> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(Box::new(|unit: &WorkUnit, _: usize| {
                Ok(vec![Metric::new("seed", unit.seed as f64)])
            }))
        }
    }

    fn tiny_spec(seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: "runner-reuse".into(),
            seed,
            params: vec![],
            points: vec![mc_exp::spec::PointSpec::new("p", vec![])],
            replicas: 6,
        }
    }

    #[test]
    fn a_session_builds_one_runner_per_spec() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = AddrSource::Fixed(listener.local_addr().unwrap().to_string());
        let factory = CountingFactory::default();
        // Three stripes of one spec, then a new spec, then the first again.
        let leases = [(0, 1), (1, 1), (2, 1), (0, 2), (1, 1)];
        let mut built = Vec::new();
        std::thread::scope(|s| {
            let worker = s.spawn(|| run_worker(&addr, &WorkerConfig::default(), &factory));
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let hello = read_frame(&mut reader).unwrap();
            assert!(matches!(hello, Some(Message::Hello { .. })), "{hello:?}");
            for (lease, (stripe, seed)) in (0u64..).zip(leases) {
                let assign = Message::Assign {
                    lease,
                    spec: tiny_spec(seed),
                    shard_index: stripe,
                    shard_count: 3,
                    done: vec![],
                };
                write_frame(&mut writer, &assign).unwrap();
                let mut records = 0;
                loop {
                    match read_frame(&mut reader).unwrap() {
                        Some(Message::Record { lease: l, .. }) if l == lease => records += 1,
                        Some(Message::LeaseDone { lease: l }) if l == lease => break,
                        Some(Message::Heartbeat) => {}
                        other => panic!("lease {lease}: unexpected {other:?}"),
                    }
                }
                assert_eq!(records, 2, "lease {lease}");
                built.push(factory.0.load(std::sync::atomic::Ordering::SeqCst));
            }
            write_frame(&mut writer, &Message::Shutdown).unwrap();
            let summary = worker.join().unwrap().unwrap();
            assert_eq!(summary.leases, 5);
        });
        assert_eq!(built, [1, 1, 1, 2, 3]);
    }

    #[test]
    fn addr_sources_resolve() {
        assert_eq!(
            AddrSource::Fixed("127.0.0.1:9".into()).current(),
            Some("127.0.0.1:9".into())
        );
        let cell = Arc::new(Mutex::new(String::new()));
        let shared = AddrSource::Shared(Arc::clone(&cell));
        assert_eq!(shared.current(), None, "empty cell is unresolvable");
        *cell.lock().unwrap() = "127.0.0.1:7".into();
        assert_eq!(shared.current(), Some("127.0.0.1:7".into()));

        let dir = std::env::temp_dir().join("mc-serve-worker-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("addr-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert_eq!(AddrSource::File(path.clone()).current(), None);
        std::fs::write(&path, "127.0.0.1:5\n").unwrap();
        assert_eq!(
            AddrSource::File(path.clone()).current(),
            Some("127.0.0.1:5".into())
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exhausted_retries_are_an_error_but_withdrawal_is_clean() {
        let cfg = WorkerConfig {
            retry: Duration::from_millis(30),
            retry_interval: Duration::from_millis(10),
            ..WorkerConfig::default()
        };
        // A refusing port burns the budget: bind then immediately drop a
        // listener so nothing is listening there.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let addr = AddrSource::Fixed(format!("127.0.0.1:{port}"));
        let err = connect_with_retry(&addr, &cfg).unwrap_err();
        assert!(matches!(err, ServeError::Config(_)), "{err}");

        // A withdrawn address is a clean `None`, not an error.
        let addr = AddrSource::Shared(Arc::new(Mutex::new(String::new())));
        assert!(connect_with_retry(&addr, &cfg).unwrap().is_none());
    }
}
