//! The coordinator: a std-only TCP service that owns one campaign at a
//! time, fans its leases out to workers, and checkpoints every accepted
//! record through the crash-safe mc-exp store, one group commit per run
//! of buffered `Record` frames.
//!
//! A worker holds at most two leases: the one it runs and one queued
//! behind it, so it starts its next stripe as soon as it sends
//! `LeaseDone` instead of waiting for the coordinator to commit the tail
//! of the last one. `Hub::assign` is the whole assignment rule.
//!
//! Concurrency shape: one accept loop ([`Coordinator::run`]), one reader
//! thread per connection, one sweeper thread for heartbeat timeouts. All
//! shared state — the worker registry, the lease table, the checkpoint
//! store — lives in a single `Mutex<Hub>`; every protocol event takes the
//! lock, mutates, and releases. Frames are small and loopback/LAN-sized,
//! and a worker takes every frame off its connection on a reader thread
//! of its own (even a queued `Assign` that arrives mid-lease), so writing
//! to a worker under the lock is cheap and keeps the state machine
//! single-threaded in effect (which is what makes the failover tests
//! deterministic).
//!
//! Liveness is wall-clock by necessity (heartbeat timeouts cannot be
//! seed-derived); everything else — which units exist, what a lease owns,
//! when the campaign is complete — is decided against the store, never
//! against timing.

use crate::lease::LeaseTable;
use crate::stop::StopFlag;
use crate::wire::{frame_buffered, read_frame, write_frame, Message};
use crate::ServeError;
use mc_exp::accounting::one_shard_progress;
use mc_exp::run::Shard;
use mc_exp::store::ResumeInfo;
use mc_exp::{CampaignSpec, ExpError, Store, UnitRecord};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Read buffer of one connection: a worker's whole batch of `Record`
/// frames (up to 64 KiB) fits, since the records one read brings in are
/// committed together. A smaller buffer splits each batch over several
/// fsyncs, and a coordinator slowed by its disk then falls behind instead
/// of folding the records that arrived meanwhile into its next commit.
const READ_BUFFER: usize = 64 * 1024;

/// Opens (or resumes) the checkpoint store for an accepted campaign. The
/// CLI maps specs to files; the in-process cluster harness hands out
/// simulated disks.
pub type StoreOpener =
    Box<dyn FnMut(&CampaignSpec) -> Result<(Store, ResumeInfo), ExpError> + Send>;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Listen address (`127.0.0.1:0` binds an ephemeral port).
    pub listen: String,
    /// Leases (stripes) per campaign; clamped to the unit count.
    pub leases: usize,
    /// A worker silent for longer than this has its lease reclaimed.
    pub heartbeat_timeout: Duration,
    /// Test knob: simulate a coordinator crash (close every socket, stop
    /// accepting, return from `run`) after accepting this many new
    /// records. `None` in production.
    pub die_after_records: Option<u64>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            listen: "127.0.0.1:0".into(),
            leases: 4,
            heartbeat_timeout: Duration::from_secs(5),
            die_after_records: None,
        }
    }
}

/// What one [`Coordinator::run`] session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Whether the campaign completed (every unit in the store).
    pub completed: bool,
    /// Whether the session ended via the simulated-crash knob.
    pub killed: bool,
    /// New records accepted this session.
    pub records: u64,
    /// Benign duplicate redeliveries skipped this session.
    pub duplicates: u64,
    /// Leases reclaimed from dead or silent workers.
    pub reclaims: u64,
    /// Total units of the campaign (0 if none was ever activated).
    pub total_units: usize,
    /// Units complete in the store when the session ended.
    pub completed_units: usize,
}

/// Leases a worker holds at most: the one it runs and one queued behind
/// it.
const HELD_LEASES: usize = 2;

/// A registered worker. The leases it holds are the lease table's
/// `Assigned(id)` entries.
struct WorkerHandle {
    stream: TcpStream,
    last_seen: Instant,
}

struct Active {
    spec: CampaignSpec,
    store: Store,
    leases: LeaseTable,
}

struct Hub {
    opener: StoreOpener,
    workers: BTreeMap<u64, WorkerHandle>,
    next_worker_id: u64,
    campaign: Option<Active>,
    records: u64,
    duplicates: u64,
    reclaims: u64,
    completed: bool,
    killed: bool,
    error: Option<ServeError>,
}

struct Inner {
    cfg: CoordinatorConfig,
    addr: SocketAddr,
    hub: Mutex<Hub>,
    /// Once raised, the accept loop, readers, and sweeper all wind down.
    stopping: StopFlag,
}

/// The campaign coordinator. Bind, optionally preload a campaign, then
/// [`Coordinator::run`] until completion or simulated crash.
pub struct Coordinator {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Coordinator {
    /// Binds the listen socket. No connections are accepted until
    /// [`Coordinator::run`].
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(cfg: CoordinatorConfig, opener: StoreOpener) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            cfg,
            addr,
            hub: Mutex::new(Hub {
                opener,
                workers: BTreeMap::new(),
                next_worker_id: 0,
                campaign: None,
                records: 0,
                duplicates: 0,
                reclaims: 0,
                completed: false,
                killed: false,
                error: None,
            }),
            stopping: StopFlag::default(),
        });
        Ok(Coordinator { listener, inner })
    }

    /// The bound address (resolves `:0` to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Activates a campaign locally (the CLI path; remote clients use
    /// [`crate::wire::submit`]). Returns `(total_units, already_complete)`.
    ///
    /// # Errors
    ///
    /// Store failures, or a different campaign already active.
    pub fn preload(&self, spec: &CampaignSpec) -> Result<(usize, usize), ServeError> {
        let mut hub = self.inner.lock_hub();
        let accepted = hub.activate(spec, &self.inner.cfg)?;
        hub.assign(None);
        if hub.campaign_complete() {
            hub.finish();
            self.inner.stopping.raise();
        }
        Ok(accepted)
    }

    /// Serves until the campaign completes, the crash knob fires, or a
    /// store error makes continuing unsound.
    ///
    /// # Errors
    ///
    /// Fatal store errors (conflicting records, checkpoint I/O failures).
    /// Worker churn is not an error — that is the point of the service.
    pub fn run(&self) -> Result<ServeOutcome, ServeError> {
        let inner = Arc::clone(&self.inner);
        let sweeper = std::thread::spawn(move || inner.sweep_loop());
        // Check `stopping` before each accept: a preloaded, already-
        // complete campaign must return without waiting for a connection.
        while !self.inner.stopping.is_raised() {
            let Ok((stream, _peer)) = self.listener.accept() else {
                continue;
            };
            if self.inner.stopping.is_raised() {
                break;
            }
            let _ = stream.set_nodelay(true);
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || inner.serve_conn(stream));
        }
        self.inner.stopping.raise();
        let _ = sweeper.join();
        let mut hub = self.inner.lock_hub();
        // A clean completion leaves no sockets behind; a crash already
        // slammed them shut.
        let outcome = ServeOutcome {
            completed: hub.completed,
            killed: hub.killed,
            records: hub.records,
            duplicates: hub.duplicates,
            reclaims: hub.reclaims,
            total_units: hub.campaign.as_ref().map_or(0, |a| a.spec.total_units()),
            completed_units: hub
                .campaign
                .as_ref()
                .map_or(0, |a| a.store.completed_count()),
        };
        match hub.error.take() {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// Workers registered right now (a `Hello` received, connection not
    /// yet dropped).
    #[must_use]
    pub(crate) fn registered_workers(&self) -> usize {
        self.inner.lock_hub().workers.len()
    }

    /// The canonical text of the checkpoint store (header + records
    /// sorted by unit) — the merged result once the outcome says
    /// `completed`.
    #[must_use]
    pub fn canonical_lines(&self) -> Option<String> {
        let hub = self.inner.lock_hub();
        hub.campaign.as_ref().map(|a| a.store.canonical_lines())
    }
}

impl Inner {
    fn lock_hub(&self) -> std::sync::MutexGuard<'_, Hub> {
        self.hub.lock().expect("coordinator hub poisoned")
    }

    /// Wakes the accept loop so it observes `stopping`.
    fn poke(&self) {
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }

    fn stop(&self) {
        self.stopping.raise();
        self.poke();
    }

    /// The heartbeat sweeper: reclaims leases of workers that went
    /// silent without their connection dying (a hung process, a dropped
    /// network — the failure EOF detection cannot see).
    fn sweep_loop(&self) {
        let interval = (self.cfg.heartbeat_timeout / 4).max(Duration::from_millis(5));
        // `stop` raises the flag, which ends the sleep at once: `run`
        // joins this thread and must not wait out a whole interval.
        while !self.stopping.sleep(interval) {
            let mut hub = self.lock_hub();
            let timeout = self.cfg.heartbeat_timeout;
            let silent: Vec<u64> = hub
                .workers
                .iter()
                .filter(|(_, w)| w.last_seen.elapsed() > timeout)
                .map(|(id, _)| *id)
                .collect();
            for id in silent {
                hub.drop_worker(id, "heartbeat timeout");
            }
        }
    }

    /// One connection's read loop. A connection is anonymous until its
    /// `Hello` (submissions never register); after that, its death —
    /// clean EOF, reset, or protocol garbage — drops the worker and
    /// reclaims its lease.
    ///
    /// A registered worker's `Record` frames are collected, not handled
    /// one by one: every record already buffered is committed as one
    /// group commit before any other frame is handled, before the loop
    /// blocks on the socket, and before the connection is dropped.
    fn serve_conn(&self, stream: TcpStream) {
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::with_capacity(READ_BUFFER, read_half);
        let mut worker_id: Option<u64> = None;
        let mut records = Vec::new();
        loop {
            if !frame_buffered(reader.buffer()) && !self.commit(&mut records, worker_id) {
                break;
            }
            let Ok(Some(msg)) = read_frame(&mut reader) else {
                break;
            };
            let open = match msg {
                Message::Record { record, .. } if worker_id.is_some() => {
                    records.push(record);
                    true
                }
                msg => {
                    self.commit(&mut records, worker_id)
                        && self.handle(msg, &mut worker_id, &stream)
                }
            };
            if !open {
                break;
            }
        }
        self.commit(&mut records, worker_id);
        if let Some(id) = worker_id {
            self.lock_hub().drop_worker(id, "connection closed");
        }
    }

    /// Commits a worker's collected records with one `append_dedup`
    /// batch. Returns `false` to close the connection: the campaign
    /// completed, the crash knob fired, or the store failed.
    fn commit(&self, records: &mut Vec<UnitRecord>, worker_id: Option<u64>) -> bool {
        if records.is_empty() {
            return true;
        }
        let mut hub = self.lock_hub();
        if self.stopping.is_raised() {
            records.clear();
            return false;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "heartbeat liveness needs the wall clock; results come from the deterministic store, whose byte-identity with serial runs the cluster tests assert"
        )]
        if let Some(w) = worker_id.and_then(|id| hub.workers.get_mut(&id)) {
            w.last_seen = Instant::now();
        }
        let accepted = match self.cfg.die_after_records {
            None => hub.accept_records(records),
            // Cut the batch at the remaining allowance so the knob fires
            // after exactly `limit` new records, as if they had arrived
            // one at a time; whatever follows the cut is never committed.
            Some(limit) => loop {
                let allowance = usize::try_from(limit.saturating_sub(hub.records))
                    .unwrap_or(usize::MAX)
                    .max(1);
                let mut head: Vec<UnitRecord> =
                    records.drain(..allowance.min(records.len())).collect();
                let accepted = hub.accept_records(&mut head);
                if accepted.is_err() || hub.records >= limit || records.is_empty() {
                    records.clear();
                    break accepted;
                }
            },
        };
        if let Err(e) = accepted {
            // A conflicting or unappendable record poisons the campaign:
            // stop serving rather than commit a store two workers
            // disagree about.
            hub.error = Some(e);
            hub.slam_connections();
            drop(hub);
            self.stop();
            return false;
        }
        if self
            .cfg
            .die_after_records
            .is_some_and(|limit| hub.records >= limit)
        {
            // Simulated SIGKILL: no goodbyes, no flushing — every socket
            // is slammed shut and `run` returns with `killed`.
            hub.killed = true;
            hub.slam_connections();
            drop(hub);
            self.stop();
            return false;
        }
        if hub.campaign_complete() {
            hub.finish();
            drop(hub);
            self.stop();
            return false;
        }
        true
    }

    /// Dispatches one frame. Returns `false` to close the connection.
    fn handle(&self, msg: Message, worker_id: &mut Option<u64>, reply: &TcpStream) -> bool {
        let mut hub = self.lock_hub();
        if self.stopping.is_raised() {
            return false;
        }
        match msg {
            // A connection registers once: a second `Hello` would leave
            // the first registration holding its leases until the sweeper
            // timed it out.
            Message::Hello { .. } if worker_id.is_some() => false,
            Message::Hello { .. } => {
                let Ok(writer) = reply.try_clone() else {
                    return false;
                };
                *worker_id = hub.register(writer);
                worker_id.is_some()
            }
            Message::Heartbeat => {
                mc_obs::counter("serve.heartbeats", 1);
                if let Some(id) = *worker_id {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "heartbeat liveness needs the wall clock; results come from the deterministic store, whose byte-identity with serial runs the cluster tests assert"
                    )]
                    if let Some(w) = hub.workers.get_mut(&id) {
                        w.last_seen = Instant::now();
                    }
                }
                true
            }
            Message::Submit { spec } => {
                let response = match hub.activate(&spec, &self.cfg) {
                    Ok((total_units, completed)) => Message::Accepted {
                        fingerprint: spec.fingerprint(),
                        total_units,
                        completed,
                    },
                    Err(e) => Message::Rejected {
                        reason: e.to_string(),
                    },
                };
                let mut writer = reply;
                let _ = write_frame(&mut writer, &response);
                hub.assign(None);
                if hub.campaign_complete() {
                    hub.finish();
                    drop(hub);
                    self.stop();
                    return false;
                }
                true
            }
            // A registered worker's records are batched by `serve_conn`;
            // one sent before `Hello` is out of protocol.
            Message::Record { .. } => false,
            Message::LeaseDone { lease } => {
                let Some(id) = *worker_id else { return false };
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "lease ids index the coordinator's lease table, a Vec"
                )]
                hub.lease_done(id, lease as usize);
                if hub.campaign_complete() {
                    hub.finish();
                    drop(hub);
                    self.stop();
                    return false;
                }
                true
            }
            // Only workers send the remaining variants; a peer that sends
            // coordinator-side messages is out of protocol.
            Message::Welcome { .. }
            | Message::Accepted { .. }
            | Message::Rejected { .. }
            | Message::Assign { .. }
            | Message::Shutdown => false,
        }
    }
}

impl Hub {
    /// Accepts `spec` as the active campaign (idempotent for the same
    /// fingerprint — resubmission after a coordinator restart is the
    /// resume path). Returns `(total_units, already_complete)`.
    fn activate(
        &mut self,
        spec: &CampaignSpec,
        cfg: &CoordinatorConfig,
    ) -> Result<(usize, usize), ServeError> {
        if let Some(active) = &self.campaign {
            return if active.spec == *spec {
                Ok((spec.total_units(), active.store.completed_count()))
            } else {
                Err(ServeError::Rejected(format!(
                    "campaign {} is already active",
                    active.spec.name
                )))
            };
        }
        let (store, _info) = (self.opener)(spec)?;
        if store.spec() != spec {
            return Err(ServeError::Rejected(
                "checkpoint store belongs to a different campaign".into(),
            ));
        }
        let total = spec.total_units();
        let mut leases = LeaseTable::new(cfg.leases.clamp(1, total.max(1)));
        for lease in 0..leases.count() {
            let shard = Shard {
                index: lease,
                count: leases.count(),
            };
            if one_shard_progress(total, shard, |u| store.is_complete(u)).is_complete() {
                leases.complete(lease);
            }
        }
        let completed = store.completed_count();
        self.campaign = Some(Active {
            spec: spec.clone(),
            store,
            leases,
        });
        Ok((total, completed))
    }

    /// Group-commits a worker's records to the checkpoint, tolerating
    /// benign redelivery; `records` is left empty.
    fn accept_records(&mut self, records: &mut Vec<UnitRecord>) -> Result<(), ServeError> {
        let Some(active) = self.campaign.as_mut() else {
            // Records for a campaign this (restarted) coordinator never
            // activated: drop them; the worker will be reassigned.
            records.clear();
            return Ok(());
        };
        let received = records.len() as u64;
        let appended = active.store.append_dedup(records)? as u64;
        self.records += appended;
        self.duplicates += received - appended;
        mc_obs::counter("serve.records", appended);
        mc_obs::counter("serve.duplicates", received - appended);
        Ok(())
    }

    /// Handles a worker's claim that its lease is finished. The store is
    /// the judge: an incomplete claim reclaims the lease instead, and only
    /// a confirmed claim tops the worker up.
    fn lease_done(&mut self, worker: u64, lease: usize) {
        let Some(active) = self.campaign.as_mut() else {
            return;
        };
        if lease >= active.leases.count() || active.leases.holder(lease) != Some(worker) {
            return; // stale claim from a reclaimed lease
        }
        let shard = Shard {
            index: lease,
            count: active.leases.count(),
        };
        let total = active.spec.total_units();
        let store = &active.store;
        let confirmed = one_shard_progress(total, shard, |u| store.is_complete(u)).is_complete();
        if confirmed {
            active.leases.complete(lease);
        } else {
            active.leases.reclaim(lease);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "heartbeat liveness needs the wall clock; results come from the deterministic store, whose byte-identity with serial runs the cluster tests assert"
        )]
        if let Some(w) = self.workers.get_mut(&worker) {
            w.last_seen = Instant::now();
        }
        self.assign(confirmed.then_some(worker));
    }

    /// Whether the active campaign has every unit in the store.
    fn campaign_complete(&self) -> bool {
        self.campaign
            .as_ref()
            .is_some_and(|a| a.store.completed_count() == a.spec.total_units())
    }

    /// Completion: mark every lease done, tell every worker to exit, and
    /// flag the session complete.
    fn finish(&mut self) {
        let _merge_span = mc_obs::span("serve.merge");
        if let Some(active) = self.campaign.as_mut() {
            for lease in 0..active.leases.count() {
                active.leases.complete(lease);
            }
        }
        self.completed = true;
        let ids: Vec<u64> = self.workers.keys().copied().collect();
        for id in ids {
            // Send the goodbye but do NOT slam the socket: a worker may
            // still be flushing its final `LeaseDone`, and TCP delivers
            // the buffered `Shutdown` before the eventual EOF either way.
            let _ = self.send_to(id, &Message::Shutdown);
        }
        self.workers.clear();
    }

    /// Simulated crash / poisoned store: slam every socket without a
    /// goodbye.
    fn slam_connections(&mut self) {
        for w in self.workers.values() {
            let _ = w.stream.shutdown(Shutdown::Both);
        }
        self.workers.clear();
    }

    /// Removes a worker and reclaims its leases, the queued one too.
    fn drop_worker(&mut self, id: u64, _why: &str) {
        let Some(w) = self.workers.remove(&id) else {
            return;
        };
        let _ = w.stream.shutdown(Shutdown::Both);
        if let Some(active) = self.campaign.as_mut() {
            let reclaimed = active.leases.reclaim_worker(id);
            if !reclaimed.is_empty() {
                let _reclaim_span = mc_obs::span("serve.reclaim");
                self.reclaims += reclaimed.len() as u64;
                mc_obs::counter("serve.reclaims", reclaimed.len() as u64);
            }
        }
        self.assign(None);
    }

    /// Registers a worker on `stream`, welcomes it and offers it a lease.
    /// `None` when the welcome could not be written.
    fn register(&mut self, stream: TcpStream) -> Option<u64> {
        let id = self.next_worker_id;
        self.next_worker_id += 1;
        #[expect(
            clippy::disallowed_methods,
            reason = "heartbeat liveness needs the wall clock; results come from the deterministic store, whose byte-identity with serial runs the cluster tests assert"
        )]
        self.workers.insert(
            id,
            WorkerHandle {
                stream,
                last_seen: Instant::now(),
            },
        );
        if !self.send_to(id, &Message::Welcome { worker_id: id }) {
            self.drop_worker(id, "welcome write failed");
            return None;
        }
        self.assign(None);
        Some(id)
    }

    /// How many leases worker `id` holds.
    fn held(&self, id: u64) -> usize {
        self.campaign.as_ref().map_or(0, |a| {
            (0..a.leases.count())
                .filter(|&lease| a.leases.holder(lease) == Some(id))
                .count()
        })
    }

    /// The assignment rule. Every idle worker gets one lease. Then
    /// `finished`, a worker whose `LeaseDone` the store just confirmed,
    /// is topped up to one running and one queued lease, while the
    /// pending leases are at least as many as the registered workers:
    /// so a worker that registers early cannot take two leases before
    /// the others connect, and the last leases go one per idle worker.
    fn assign(&mut self, finished: Option<u64>) {
        let idle: Vec<u64> = self
            .workers
            .keys()
            .copied()
            .filter(|&id| self.held(id) == 0)
            .collect();
        for id in idle {
            self.assign_one(id);
        }
        if let Some(id) = finished {
            while self.held(id) < HELD_LEASES
                && self
                    .campaign
                    .as_ref()
                    .is_some_and(|a| a.leases.pending_count() >= self.workers.len())
                && self.assign_one(id)
            {}
        }
    }

    /// Assigns the next pending lease to `id`, skipping leases the store
    /// already covers (a resumed checkpoint can complete a lease before
    /// any worker touches it). A lease assigned behind one the worker
    /// holds counts as `serve.queued`. `false` when nothing was assigned.
    fn assign_one(&mut self, id: u64) -> bool {
        loop {
            let Some(active) = self.campaign.as_mut() else {
                return false;
            };
            if !self.workers.contains_key(&id) {
                return false;
            }
            let Some(lease) = active.leases.assign_next(id) else {
                return false;
            };
            let count = active.leases.count();
            let shard = Shard {
                index: lease,
                count,
            };
            let total = active.spec.total_units();
            let store = &active.store;
            if one_shard_progress(total, shard, |u| store.is_complete(u)).is_complete() {
                active.leases.complete(lease);
                continue;
            }
            let done: Vec<usize> = (0..total)
                .filter(|&u| shard.owns(u) && store.is_complete(u))
                .collect();
            let msg = Message::Assign {
                lease: lease as u64,
                spec: active.spec.clone(),
                shard_index: lease,
                shard_count: count,
                done,
            };
            let queued = self.held(id) > 1;
            let _assign_span = mc_obs::span("serve.assign");
            if self.send_to(id, &msg) {
                if queued {
                    mc_obs::counter("serve.queued", 1);
                }
                return true;
            }
            // The send failed: the worker is gone; its freshly assigned
            // lease goes straight back.
            self.drop_worker(id, "assign write failed");
            return false;
        }
    }

    /// Writes one frame to a worker. `false` (and no panic) on failure.
    fn send_to(&mut self, id: u64, msg: &Message) -> bool {
        let Some(w) = self.workers.get_mut(&id) else {
            return false;
        };
        write_frame(&mut w.stream, msg).is_ok()
    }
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("addr", &self.inner.addr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_exp::store::Store;
    use mc_exp::{CatalogOptions, Metric};

    fn tiny_spec() -> CampaignSpec {
        mc_exp::catalog::build("ablation_sigma", &CatalogOptions::default())
            .unwrap()
            .spec
    }

    fn memory_opener() -> StoreOpener {
        Box::new(|spec: &CampaignSpec| Ok((Store::in_memory(spec), ResumeInfo::default())))
    }

    fn memory_hub() -> Hub {
        Hub {
            opener: memory_opener(),
            workers: BTreeMap::new(),
            next_worker_id: 0,
            campaign: None,
            records: 0,
            duplicates: 0,
            reclaims: 0,
            completed: false,
            killed: false,
            error: None,
        }
    }

    fn unit_record(spec: &CampaignSpec, unit: usize, value: f64) -> UnitRecord {
        let u = spec.unit(unit);
        UnitRecord {
            unit: u.index,
            point: u.point,
            replica: u.replica,
            seed: u.seed,
            metrics: vec![Metric::new("value", value)],
        }
    }

    #[test]
    fn submit_is_idempotent_and_rejects_a_second_campaign() {
        let mut hub = memory_hub();
        let cfg = CoordinatorConfig::default();
        let spec = tiny_spec();
        assert_eq!(hub.activate(&spec, &cfg).unwrap(), (5, 0));
        assert_eq!(hub.activate(&spec, &cfg).unwrap(), (5, 0), "idempotent");
        let mut other = spec.clone();
        other.seed = 99;
        assert!(matches!(
            hub.activate(&other, &cfg),
            Err(ServeError::Rejected(_))
        ));
    }

    #[test]
    fn records_dedup_and_count_through_the_hub() {
        let mut hub = memory_hub();
        let spec = tiny_spec();
        hub.activate(&spec, &CoordinatorConfig::default()).unwrap();
        let record = unit_record(&spec, 0, 1.0);
        hub.accept_records(&mut vec![record.clone()]).unwrap();
        hub.accept_records(&mut vec![record.clone()]).unwrap();
        assert_eq!((hub.records, hub.duplicates), (1, 1));
        let mut conflict = record;
        conflict.metrics[0].value = 2.0;
        assert!(hub.accept_records(&mut vec![conflict]).is_err());
    }

    #[test]
    fn a_batch_with_an_identical_duplicate_counts_exactly() {
        let mut hub = memory_hub();
        let spec = tiny_spec();
        hub.activate(&spec, &CoordinatorConfig::default()).unwrap();
        let (r0, r1, r2) = (
            unit_record(&spec, 0, 0.5),
            unit_record(&spec, 1, 0.5),
            unit_record(&spec, 2, 0.5),
        );
        let mut batch = vec![r0.clone(), r1.clone(), r0.clone()];
        hub.accept_records(&mut batch).unwrap();
        assert!(batch.is_empty());
        assert_eq!((hub.records, hub.duplicates), (2, 1));
        // A redelivered record from an earlier batch is a duplicate too.
        hub.accept_records(&mut vec![r1, r2]).unwrap();
        assert_eq!((hub.records, hub.duplicates), (3, 2));
        let store = &hub.campaign.as_ref().unwrap().store;
        let units: Vec<usize> = store.records().iter().map(|r| r.unit).collect();
        assert_eq!(units, vec![0, 1, 2]);
    }

    #[test]
    fn the_crash_knob_cuts_a_batch_at_its_allowance() {
        // A real listener, so `stop`'s wake-up connection has a target.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let inner = Inner {
            cfg: CoordinatorConfig {
                die_after_records: Some(2),
                ..CoordinatorConfig::default()
            },
            addr: listener.local_addr().unwrap(),
            hub: Mutex::new(memory_hub()),
            stopping: StopFlag::default(),
        };
        let spec = tiny_spec();
        inner.lock_hub().activate(&spec, &inner.cfg).unwrap();
        // The duplicate does not count toward the allowance; the third
        // new record lies past the cut and is never committed.
        let mut batch = vec![
            unit_record(&spec, 0, 0.5),
            unit_record(&spec, 0, 0.5),
            unit_record(&spec, 1, 0.5),
            unit_record(&spec, 2, 0.5),
        ];
        assert!(
            !inner.commit(&mut batch, None),
            "the knob closes the connection"
        );
        assert!(batch.is_empty());
        let hub = inner.lock_hub();
        assert!(hub.killed && !hub.completed);
        assert_eq!((hub.records, hub.duplicates), (2, 1));
        let store = &hub.campaign.as_ref().unwrap().store;
        assert!(store.is_complete(1) && !store.is_complete(2));
        assert!(inner.stopping.is_raised());
    }

    /// Registers `workers` workers on loopback connections, activates an
    /// 8-unit campaign of 8 leases, and lets the workers finish their
    /// running leases in turn. Returns every assignment as (worker,
    /// lease, queued behind a lease the worker holds).
    fn assignment_log(workers: usize) -> Vec<(u64, usize, bool)> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut hub = memory_hub();
        // The peers stay open so the hub's writes succeed.
        let _peers: Vec<TcpStream> = (0..workers)
            .map(|_| {
                let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (conn, _) = listener.accept().unwrap();
                hub.register(conn).unwrap();
                peer
            })
            .collect();
        let spec = CampaignSpec {
            name: "lease-queue".into(),
            seed: 5,
            params: vec![],
            points: vec![mc_exp::spec::PointSpec::new("p", vec![])],
            replicas: 8,
        };
        let cfg = CoordinatorConfig {
            leases: 8,
            ..CoordinatorConfig::default()
        };
        hub.activate(&spec, &cfg).unwrap();
        hub.assign(None);

        // Each worker runs its leases in the order they were assigned; one
        // hub call assigns a worker's leases in ascending order.
        let mut held: Vec<Vec<usize>> = vec![Vec::new(); workers];
        let mut log = Vec::new();
        let mut observe = |hub: &Hub, held: &mut Vec<Vec<usize>>| {
            let leases = &hub.campaign.as_ref().unwrap().leases;
            for lease in 0..leases.count() {
                if let Some(w) = leases.holder(lease) {
                    let queue = &mut held[usize::try_from(w).unwrap()];
                    if !queue.contains(&lease) {
                        log.push((w, lease, !queue.is_empty()));
                        queue.push(lease);
                    }
                }
            }
            for (w, queue) in held.iter().enumerate() {
                assert!(queue.len() <= HELD_LEASES, "worker {w} holds {queue:?}");
                assert_eq!(hub.held(w as u64), queue.len());
            }
        };
        observe(&hub, &mut held);
        for turn in 0..64 {
            if hub.campaign.as_ref().unwrap().leases.all_done() {
                break;
            }
            let w = turn % workers;
            if held[w].is_empty() {
                continue;
            }
            // Lease `l` of 8 owns unit `l` alone.
            let lease = held[w].remove(0);
            hub.accept_records(&mut vec![unit_record(&spec, lease, 0.5)])
                .unwrap();
            hub.lease_done(w as u64, lease);
            observe(&hub, &mut held);
        }
        assert!(hub.campaign.as_ref().unwrap().leases.all_done());
        log
    }

    #[test]
    fn a_finished_worker_queues_a_lease_while_there_are_leases_to_spare() {
        let (f, t) = (false, true);
        // One worker: every lease after the second is queued behind the
        // one it runs.
        assert_eq!(
            assignment_log(1),
            [
                (0, 0, f),
                (0, 1, f),
                (0, 2, t),
                (0, 3, t),
                (0, 4, t),
                (0, 5, t),
                (0, 6, t),
                (0, 7, t)
            ]
        );
        // Registering assigns one lease each; a worker queues only while
        // the pending leases are at least as many as the workers, and the
        // last lease goes to the idle worker.
        assert_eq!(
            assignment_log(2),
            [
                (0, 0, f),
                (1, 1, f),
                (0, 2, f),
                (0, 3, t),
                (1, 4, f),
                (1, 5, t),
                (0, 6, t),
                (1, 7, f)
            ]
        );
        assert_eq!(
            assignment_log(3),
            [
                (0, 0, f),
                (1, 1, f),
                (2, 2, f),
                (0, 3, f),
                (0, 4, t),
                (1, 5, f),
                (2, 6, f),
                (1, 7, f)
            ]
        );
    }

    #[test]
    fn preactivation_marks_resumed_leases_done() {
        let spec = tiny_spec();
        let mut store = Store::in_memory(&spec);
        // Complete stripe 1 of 2 (units 1 and 3) before activation.
        for unit in [1usize, 3] {
            let u = spec.unit(unit);
            store
                .append(UnitRecord {
                    unit: u.index,
                    point: u.point,
                    replica: u.replica,
                    seed: u.seed,
                    metrics: vec![Metric::new("value", 0.0)],
                })
                .unwrap();
        }
        let prefilled = Mutex::new(Some(store));
        let mut hub = Hub {
            opener: Box::new(move |_spec| {
                Ok((
                    prefilled.lock().unwrap().take().expect("opened once"),
                    ResumeInfo::default(),
                ))
            }),
            workers: BTreeMap::new(),
            next_worker_id: 0,
            campaign: None,
            records: 0,
            duplicates: 0,
            reclaims: 0,
            completed: false,
            killed: false,
            error: None,
        };
        let cfg = CoordinatorConfig {
            leases: 2,
            ..CoordinatorConfig::default()
        };
        assert_eq!(hub.activate(&tiny_spec(), &cfg).unwrap(), (5, 2));
        let leases = &hub.campaign.as_ref().unwrap().leases;
        assert_eq!(leases.state(1), crate::lease::LeaseState::Done);
        assert_eq!(leases.state(0), crate::lease::LeaseState::Pending);
    }
}
