//! `archive_mixed`: archive ingest beside read, as a closed loop.
//!
//! A fixed fleet of [`CLIENTS`] clients, driven from one thread, each
//! issues its next request only when the previous one has completed:
//! ~70% Zipf reads of a preloaded catalog, ~20% ingests, ~10% deletes
//! of the client's own uploads, across all three tenant tiers. The
//! catalog is at least [`CATALOG_TO_CACHE`]× the hot-cache budget, so
//! reads both hit the cache and miss into the BCH decode; the queues are
//! shallower than the fleet, so submits meet backpressure; deletes
//! fragment banks, so compaction runs inside drains.
//!
//! The service is an in-process, synchronous submit/drain scheduler,
//! which is what makes a one-thread closed loop exact: a request's
//! latency runs from its first submit attempt to the `drain_batch` call
//! that returns it, so retries and queue wait both count. Everything
//! except those latencies is a pure function of the seed.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use vapp_archive::{
    Archive, ArchiveService, Completion, ObjectId, OpClass, Request, ServiceConfig, TenantPolicy,
};
use vapp_rand::rngs::StdRng;
use vapp_rand::{RngExt, SeedableRng};
use vapp_sim::derive_subseeds;
use vapp_storage::channel::mlc_pcm;

use crate::ledger::Ledger;
use crate::metrics::{Metric, ObsTotals};
use crate::store::RAW_BER;
use crate::{Flow, Round};

/// Clients in the closed loop.
pub const CLIENTS: usize = 64;
/// Client requests completed per round.
pub const OPS_PER_ROUND: u64 = 8192;
/// Distinct fleets: round `r` replays fleet `r % FLEETS`. How much a
/// compaction stalls depends on which objects the fleet left where, so
/// the tail metrics take their median over several fleets.
pub const FLEETS: usize = 8;
/// Catalog objects preloaded before the loop (the read population).
const CATALOG: usize = 256;
/// Object sizes are uniform in `[MIN_OBJECT, MAX_OBJECT)` bytes.
const MIN_OBJECT: usize = 8 << 10;
/// See [`MIN_OBJECT`].
const MAX_OBJECT: usize = 32 << 10;
/// Zipf exponent of read popularity over the catalog.
const ZIPF_S: f64 = 1.1;
/// The catalog must outgrow the hot cache by at least this factor.
const CATALOG_TO_CACHE: u64 = 4;
/// Shard banks and their size in 64-byte blocks (32 MiB in all; a
/// round's live set peaks near 21 MiB).
const BANKS: usize = 4;
/// See [`BANKS`].
const BANK_BLOCKS: u64 = 1 << 17;
/// Scheduler settings: queues shallower than the fleet, a cache a
/// fraction of the catalog, compaction once deletes leave 8 holes
/// (a few compactions per round).
const SERVICE: ServiceConfig = ServiceConfig {
    queue_depth: 32,
    batch: 16,
    cache_bytes: 1 << 20,
    compact_fragments: 8,
};
/// Deleted ids read back after each round.
const DELETED_CHECKS: usize = 16;
/// Tenant index of the gold tier, whose reads must never degrade.
const GOLD: u32 = 0;

/// The archive flow's inputs, built once per set-up.
pub struct ArchiveFlow {
    archive: Archive,
    catalog: Vec<Vec<u8>>,
    cdf: Vec<f64>,
    /// Client seeds of each fleet.
    fleets: Vec<Vec<u64>>,
    rounds: usize,
}

/// Deterministic object bytes: a size in `[MIN_OBJECT, MAX_OBJECT)` and
/// its content, both from `seed`.
pub fn payload(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = MIN_OBJECT + rng.random_range(0..(MAX_OBJECT - MIN_OBJECT) as u64) as usize;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.random::<u64>().to_le_bytes());
    }
    out.truncate(len);
    out
}

fn tenant_of_catalog(id: ObjectId) -> u32 {
    (id % TenantPolicy::default_tiers().len() as u64) as u32
}

impl ArchiveFlow {
    /// Builds the archive and preloads the catalog.
    ///
    /// # Errors
    ///
    /// Fails if the catalog does not fit the banks or is too small to
    /// outgrow the cache.
    pub fn new(seed: u64) -> Result<Self, String> {
        let seeds = derive_subseeds(seed, 3);
        let catalog: Vec<Vec<u8>> = derive_subseeds(seeds[0], CATALOG)
            .into_iter()
            .map(payload)
            .collect();
        let bytes: u64 = catalog.iter().map(|p| p.len() as u64).sum();
        if bytes < CATALOG_TO_CACHE * SERVICE.cache_bytes {
            return Err(format!(
                "catalog of {bytes} bytes is under {CATALOG_TO_CACHE}x the cache"
            ));
        }
        let mut archive = Archive::new(
            BANKS,
            BANK_BLOCKS,
            mlc_pcm(RAW_BER),
            TenantPolicy::default_tiers(),
            seeds[1],
        );
        for (id, p) in catalog.iter().enumerate() {
            let id = id as ObjectId;
            archive
                .put(id, tenant_of_catalog(id), p)
                .map_err(|e| format!("catalog object {id} does not fit: {e:?}"))?;
        }
        let mut cdf = Vec::with_capacity(CATALOG);
        let mut acc = 0.0;
        for r in 0..CATALOG {
            acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
            cdf.push(acc);
        }
        Ok(ArchiveFlow {
            archive,
            catalog,
            cdf,
            fleets: derive_subseeds(seeds[2], FLEETS)
                .into_iter()
                .map(|s| derive_subseeds(s, CLIENTS))
                .collect(),
            rounds: 0,
        })
    }
}

/// Where a client is in its request cycle.
enum State {
    /// Ready to issue its next request.
    Idle,
    /// Holding a request the service has not accepted yet.
    Waiting(Request),
    /// Its request is queued in the service.
    InFlight,
}

struct Client {
    index: usize,
    rng: StdRng,
    tenant: u32,
    next_seq: u32,
    /// Own uploads that completed and are not deleted.
    alive: Vec<u32>,
    deleted: Vec<ObjectId>,
    state: State,
    /// The current request has not been submitted yet.
    fresh: bool,
    /// First submit attempt of the current request.
    first_submit: Instant,
}

impl Client {
    fn new(index: usize, seed: u64) -> Self {
        Client {
            index,
            rng: StdRng::seed_from_u64(seed),
            tenant: (index % TenantPolicy::default_tiers().len()) as u32,
            next_seq: 0,
            alive: Vec::new(),
            deleted: Vec::new(),
            state: State::Idle,
            fresh: false,
            first_submit: Instant::now(),
        }
    }

    fn id(&self, seq: u32) -> ObjectId {
        ((self.index as u64 + 1) << 40) | seq as u64
    }

    /// Draws the next request: a Zipf read, an ingest, or a delete of
    /// one of its own live uploads (an ingest when it has none).
    fn next_request(&mut self, cdf: &[f64]) -> Request {
        let u: f64 = self.rng.random();
        if u < 0.7 {
            let total = cdf[cdf.len() - 1];
            let x = self.rng.random::<f64>() * total;
            let rank = cdf.partition_point(|&c| c <= x).min(cdf.len() - 1);
            return Request::Read {
                id: rank as ObjectId,
            };
        }
        if u < 0.9 || self.alive.is_empty() {
            let seq = self.next_seq;
            self.next_seq += 1;
            return Request::Ingest {
                id: self.id(seq),
                tenant: self.tenant,
                payload: payload(self.rng.random()),
            };
        }
        let k = self.rng.random_range(0..self.alive.len() as u64) as usize;
        let seq = self.alive.swap_remove(k);
        Request::Delete { id: self.id(seq) }
    }
}

/// Matches completions back to the clients that issued them and keeps
/// the closed loop's request accounting.
///
/// Completions name only an object id, and several clients may read the
/// same catalog object at once. The service answers reads in the order
/// it accepted them, so reads of one id are matched first-in,
/// first-out. Ingest and delete ids are unique to their client.
#[derive(Debug, Default)]
pub struct Book {
    reads: HashMap<ObjectId, VecDeque<usize>>,
    mutations: HashMap<ObjectId, usize>,
    /// Submit attempts, accepted or not.
    pub attempts: u64,
    /// Attempts refused with backpressure.
    pub rejected: u64,
    /// Requests the service accepted.
    pub accepted: u64,
    /// Completions matched to a client.
    pub completed: u64,
}

impl Book {
    /// Records an accepted submit of `client`'s request on `id`.
    pub fn accept(&mut self, client: usize, class: OpClass, id: ObjectId) {
        self.attempts += 1;
        self.accepted += 1;
        match class {
            OpClass::Read => self.reads.entry(id).or_default().push_back(client),
            OpClass::Ingest | OpClass::Delete => {
                self.mutations.insert(id, client);
            }
        }
    }

    /// Records a refused submit.
    pub fn reject(&mut self) {
        self.attempts += 1;
        self.rejected += 1;
    }

    /// The client a completion belongs to.
    pub fn complete(&mut self, c: &Completion) -> Result<usize, String> {
        let client = match c {
            Completion::ReadDone { id, .. } => {
                let q = self.reads.get_mut(id);
                let client = q.and_then(|q| q.pop_front());
                if self.reads.get(id).is_some_and(|q| q.is_empty()) {
                    self.reads.remove(id);
                }
                client.ok_or_else(|| format!("read completion for {id} nobody awaits"))?
            }
            Completion::Ingested { id, .. } | Completion::Deleted { id, .. } => self
                .mutations
                .remove(id)
                .ok_or_else(|| format!("mutation completion for {id} nobody awaits"))?,
        };
        self.completed += 1;
        Ok(client)
    }

    /// Requests accepted but not completed yet.
    pub fn outstanding(&self) -> u64 {
        self.accepted - self.completed
    }
}

fn class_and_id(req: &Request) -> (OpClass, ObjectId) {
    match req {
        Request::Ingest { id, .. } | Request::Read { id } | Request::Delete { id } => {
            (req.class(), *id)
        }
    }
}

/// One closed-loop round's raw results.
struct LoopOut {
    read_us: Vec<f64>,
    ingest_us: Vec<f64>,
    degraded_reads: u64,
}

impl ArchiveFlow {
    /// Runs the closed loop until [`OPS_PER_ROUND`] requests completed.
    fn closed_loop(
        &self,
        service: &mut ArchiveService,
        clients: &mut [Client],
        book: &mut Book,
        ledger: &mut Ledger,
        round: &mut Round,
    ) -> LoopOut {
        let mut out = LoopOut {
            read_us: Vec::new(),
            ingest_us: Vec::new(),
            degraded_reads: 0,
        };
        let mut issued = 0u64;
        // Clients holding a request the service has not accepted, oldest
        // request first: a refused request is retried before newer ones,
        // so backpressure delays requests fairly instead of starving some.
        let mut pending: VecDeque<usize> = VecDeque::new();
        while book.completed < OPS_PER_ROUND {
            ledger.next_op();
            for c in clients.iter_mut() {
                if matches!(c.state, State::Idle) && issued < OPS_PER_ROUND {
                    c.state = State::Waiting(c.next_request(&self.cdf));
                    c.fresh = true;
                    pending.push_back(c.index);
                    issued += 1;
                }
            }
            for _ in 0..pending.len() {
                let k = pending.pop_front().expect("counted above");
                let c = &mut clients[k];
                let State::Waiting(req) = std::mem::replace(&mut c.state, State::InFlight) else {
                    unreachable!("pending clients hold a request");
                };
                if c.fresh {
                    c.first_submit = Instant::now();
                    c.fresh = false;
                }
                let (class, id) = class_and_id(&req);
                match ledger.time("archive.submit", || service.submit(req)) {
                    Ok(()) => book.accept(k, class, id),
                    Err(full) => {
                        book.reject();
                        c.state = State::Waiting(full.item);
                        pending.push_back(k);
                    }
                }
            }
            let done = ledger.time("archive.drain", || service.drain_batch());
            let now = Instant::now();
            for comp in &done {
                let k = match book.complete(comp) {
                    Ok(k) => k,
                    Err(e) => {
                        round.fail(e);
                        continue;
                    }
                };
                let c = &mut clients[k];
                let us = now.duration_since(c.first_submit).as_secs_f64() * 1e6;
                c.state = State::Idle;
                match comp {
                    Completion::ReadDone {
                        id,
                        bytes,
                        degraded,
                        ..
                    } => {
                        out.read_us.push(us);
                        out.degraded_reads += *degraded as u64;
                        self.verify_read(*id, bytes.as_deref(), *degraded, round);
                    }
                    Completion::Ingested { id, error } => {
                        out.ingest_us.push(us);
                        match error {
                            // The low bits of an upload's id are its
                            // sequence number (see `Client::id`).
                            None => c.alive.push((*id & 0xFFFF_FFFF) as u32),
                            Some(e) => round.fail(format!("ingest of {id} refused: {e:?}")),
                        }
                    }
                    Completion::Deleted { id, existed } => {
                        if *existed {
                            c.deleted.push(*id);
                        } else {
                            round.fail(format!("delete of live upload {id} found nothing"));
                        }
                    }
                }
            }
        }
        out
    }

    /// A non-degraded read returns the ingested bytes, a degraded read
    /// does not, and gold-tier reads are never degraded.
    fn verify_read(&self, id: ObjectId, bytes: Option<&[u8]>, degraded: bool, round: &mut Round) {
        let Some(want) = self.catalog.get(id as usize) else {
            round.fail(format!("read of {id}, which is not in the catalog"));
            return;
        };
        match bytes {
            None => round.fail(format!("catalog object {id} read as missing")),
            Some(got) if (got == want.as_slice()) == degraded => round.fail(format!(
                "catalog object {id}: degraded={degraded} but bytes {} the payload",
                if degraded { "equal" } else { "differ from" }
            )),
            Some(_) => {}
        }
        if degraded && tenant_of_catalog(id) == GOLD {
            round.fail(format!("gold-tier object {id} read degraded"));
        }
    }

    /// Deleted ids read back as missing, through the queues and cache.
    fn verify_deleted(&self, service: &mut ArchiveService, clients: &[Client], round: &mut Round) {
        let ids: Vec<ObjectId> = clients
            .iter()
            .flat_map(|c| c.deleted.iter().copied())
            .take(DELETED_CHECKS)
            .collect();
        let mut done = Vec::new();
        for &id in &ids {
            let mut req = Request::Read { id };
            while let Err(full) = service.submit(req) {
                req = full.item;
                done.extend(service.drain_batch());
            }
        }
        done.extend(service.drain_all());
        for c in done {
            if let Completion::ReadDone {
                id, bytes: Some(_), ..
            } = c
            {
                if ids.contains(&id) {
                    round.fail(format!("deleted object {id} still reads"));
                }
            }
        }
    }
}

/// The median over rounds of each round's `q`-quantile of `samples`: a
/// slow spell on the host spoils one round's tail, not the metric. The
/// sample count is every sample of every round.
fn round_percentile(
    name: &'static str,
    rounds: &[&Round],
    samples: &str,
    q: f64,
) -> Result<Metric, String> {
    let mut per_round = Vec::with_capacity(rounds.len());
    let mut total = 0;
    for r in rounds {
        let xs = r
            .samples
            .iter()
            .find(|(n, _)| *n == samples)
            .map_or(&[][..], |(_, xs)| xs.as_slice());
        per_round.push(Metric::percentile(name, xs, q)?.value);
        total += xs.len();
    }
    let mut m = Metric::median(name, &per_round)?;
    m.samples = Some(total);
    Ok(m)
}

impl Flow for ArchiveFlow {
    const NAME: &'static str = "archive";
    // Every fleet once, and one rerun.
    const MIN_ROUNDS: usize = FLEETS + 1;

    fn round(&mut self, ledger: &mut Ledger) -> Round {
        let fleet = self.rounds % FLEETS;
        self.rounds += 1;
        let mut round = Round {
            replay: fleet,
            ..Round::default()
        };
        let mut service = ArchiveService::new(self.archive.clone(), SERVICE);
        let mut clients: Vec<Client> = self.fleets[fleet]
            .iter()
            .enumerate()
            .map(|(i, &s)| Client::new(i, s))
            .collect();
        let mut book = Book::default();
        let start = Instant::now();
        let out = self.closed_loop(&mut service, &mut clients, &mut book, ledger, &mut round);
        round.wall = start.elapsed().as_secs_f64();
        round.ops = book.completed;

        let snap = vapp_obs::current().snapshot();
        let c = |name: &str| snap.counter(name);
        let (submitted, rejected) = (c("archive.req.submitted"), c("archive.req.rejected"));
        if submitted != c("archive.req.completed") + rejected {
            round.fail(format!(
                "service accounting: submitted {submitted} != completed {} + rejected {rejected}",
                c("archive.req.completed")
            ));
        }
        if (book.attempts, book.rejected, book.outstanding()) != (submitted, rejected, 0) {
            round.fail(format!(
                "closed-loop accounting: {book:?} disagrees with the service's \
                 {submitted} submitted / {rejected} rejected"
            ));
        }
        crate::unobserved(|| self.verify_deleted(&mut service, &clients, &mut round));

        let reject_frac = rejected as f64 / submitted.max(1) as f64;
        let degraded_frac = out.degraded_reads as f64 / out.read_us.len().max(1) as f64;
        round.quality = vec![
            ("reject_frac", reject_frac),
            ("degraded_read_frac", degraded_frac),
        ];
        round.samples = vec![("read_us", out.read_us), ("ingest_us", out.ingest_us)];
        round.fingerprint = vec![
            ("archive.cache.hits", c("archive.cache.hits")),
            ("archive.cache.misses", c("archive.cache.misses")),
            ("archive.read.degraded", out.degraded_reads),
            ("degraded_read_frac", degraded_frac.to_bits()),
            ("archive.req.rejected", rejected),
            ("reject_frac", reject_frac.to_bits()),
            ("archive.compact.runs", c("archive.compact.runs")),
        ];
        round
    }

    fn end_to_end(rounds: &[Round]) -> Result<Vec<Metric>, String> {
        Ok(vec![
            Metric::new(
                "reject_frac",
                crate::replay_mean(rounds, "reject_frac", FLEETS)?,
            ),
            Metric::new(
                "degraded_read_frac",
                crate::replay_mean(rounds, "degraded_read_frac", FLEETS)?,
            ),
        ])
    }

    fn per_layer(
        rounds: &[Round],
        ledger: &Ledger,
        obs: &ObsTotals,
    ) -> Result<Vec<Metric>, String> {
        let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
        let rate: Vec<f64> = untraced.iter().map(|r| r.ops as f64 / r.wall).collect();
        let n = rounds.len() as f64;
        let ops: u64 = rounds.iter().map(|r| r.ops).sum();
        let layer = |name| crate::traced_seconds_per_op(rounds, ledger, Self::NAME, name);
        let (hits, misses) = (
            obs.counter("archive.cache.hits"),
            obs.counter("archive.cache.misses"),
        );
        let drains: Vec<f64> = ledger
            .spans()
            .iter()
            .filter(|s| s.flow == Self::NAME && s.name == "archive.drain")
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect();
        let per_round = |name| obs.counter(name) as f64 / n;
        Ok(vec![
            Metric::median("archive_ops_per_s", &rate)?,
            round_percentile("read_us_p50", &untraced, "read_us", 0.5)?,
            round_percentile("read_us_p99", &untraced, "read_us", 0.99)?,
            round_percentile("ingest_us_p99", &untraced, "ingest_us", 0.99)?,
            Metric::new("archive.submit.s", layer("archive.submit")),
            Metric::new("archive.drain.s", layer("archive.drain")),
            Metric::new(
                "storage.batch.decode.s",
                obs.span_s("storage.batch.decode") / ops as f64,
            ),
            Metric::new(
                "archive.cache.hit_frac",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            Metric::new(
                "archive.cache.evictions",
                per_round("archive.cache.evictions"),
            ),
            Metric::new(
                "archive.read_hit.us_p50",
                obs.hist_quantile("archive.op.read_hit.ns", 0.5) / 1e3,
            ),
            Metric::new(
                "archive.read_miss.us_p99",
                obs.hist_quantile("archive.op.read_miss.ns", 0.99) / 1e3,
            ),
            Metric::new(
                "archive.ingest.us_p99",
                obs.hist_quantile("archive.op.ingest.ns", 0.99) / 1e3,
            ),
            Metric::new(
                "archive.drain.us_p99",
                crate::stats::nearest_rank(&drains, 0.99),
            ),
            Metric::new("archive.compact.runs", per_round("archive.compact.runs")),
            Metric::new(
                "archive.compact.moved_blocks",
                per_round("archive.compact.moved_blocks"),
            ),
            Metric::new("archive.queue.rejected", per_round("archive.req.rejected")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_done(id: ObjectId) -> Completion {
        Completion::ReadDone {
            id,
            bytes: Some(Vec::new()),
            cache_hit: false,
            degraded: false,
        }
    }

    #[test]
    fn reads_of_one_id_match_their_clients_first_in_first_out() {
        let mut book = Book::default();
        book.accept(3, OpClass::Read, 7);
        book.accept(1, OpClass::Read, 7);
        book.accept(2, OpClass::Read, 9);
        book.accept(5, OpClass::Ingest, 1 << 40);
        assert_eq!(book.complete(&read_done(7)), Ok(3));
        assert_eq!(book.complete(&read_done(9)), Ok(2));
        let ingested = Completion::Ingested {
            id: 1 << 40,
            error: None,
        };
        assert_eq!(book.complete(&ingested), Ok(5));
        assert_eq!(book.complete(&read_done(7)), Ok(1));
        assert!(book.complete(&read_done(7)).is_err(), "no reader is left");
        assert_eq!(book.outstanding(), 0);
    }

    #[test]
    fn closed_loop_accounting_matches_the_service() {
        vapp_par::with_threads(1, || {
            let reg = std::sync::Arc::new(vapp_obs::Registry::new());
            let round = vapp_obs::registry::with_registry(reg.clone(), || {
                ArchiveFlow::new(11)
                    .expect("set-up")
                    .round(&mut Ledger::new())
            });
            assert!(round.failures.is_empty(), "{:?}", round.failures);
            assert_eq!(round.ops, OPS_PER_ROUND);
            let snap = reg.snapshot();
            let submitted = snap.counter("archive.req.submitted");
            let rejected = snap.counter("archive.req.rejected");
            assert!(rejected > 0, "the fleet outnumbers the queues");
            assert!(snap.counter("archive.cache.hits") > 0);
            assert!(snap.counter("archive.cache.misses") > 0);
            assert!(snap.counter("archive.compact.runs") > 0);
            // Every accepted request completed exactly once.
            assert_eq!(submitted - rejected, snap.counter("archive.req.completed"));
        });
    }

    #[test]
    fn payloads_are_seeded_and_sized_within_bounds() {
        assert_eq!(payload(5), payload(5));
        assert_ne!(payload(5), payload(6));
        for s in 0..32 {
            let n = payload(s).len();
            assert!((MIN_OBJECT..MAX_OBJECT).contains(&n), "{n}");
        }
    }
}
