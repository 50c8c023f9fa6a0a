//! Multi-device fault domains: health-gated sharded dispatch with
//! failover, model-derived deadlines, and seeded chaos injection.
//!
//! A [`Fleet`] owns N simulated devices (each wrapped in its own
//! [`Session`], with its own [`regla_model::ModelParams`]) plus the CPU
//! host pool, and shards a batch across them:
//!
//! * **Sharding** — each device's share is proportional to the inverse
//!   of [`Session::price`], the model's price of the plan the run
//!   resolves on *that* device, so a GT200 next to a Quadro 6000 gets
//!   fewer problems, not half. Shares are contiguous problem ranges,
//!   each split into [`FleetPolicy::chunks_per_device`] chunks. The
//!   default of one chunk launches a device's whole share at once, which
//!   fills the device best; more chunks trade one extra launch each for
//!   finer rescue and steal granularity within a dispatch (across
//!   dispatches, stealing still balances devices through their persisted
//!   clocks). Under [`regla_gpu_sim::ExecMode::Full`] the merged output
//!   is bit-identical to one [`Session`] run; under the sampled modes
//!   each chunk runs its own sample, so a different set of problems is
//!   computed.
//! * **Health gating** — every device carries a circuit breaker
//!   (Closed → Open → HalfOpen) fed by consecutive dispatch errors and
//!   by the fault-detection rate of successful runs. An open breaker
//!   parks the device until a deterministic simulated-clock backoff
//!   expires; the first dispatch after that is a half-open probe.
//! * **Deadlines** — when [`FleetPolicy::deadline_slack`] is set, every
//!   dispatch gets a per-launch cycle budget: the model's *worst-candidate*
//!   price (the slowest approach) × the slack factor; a launch that
//!   blows it fails with [`LaunchError::DeadlineExceeded`] instead of
//!   dilating the campaign.
//! * **Failover & stealing** — a chunk whose dispatch failed is re-queued
//!   and preferentially picked up by a *different* device (a rescue,
//!   counted in [`RecoveryStats::device_failovers`]); an idle device
//!   steals queued chunks from the most-loaded peer (counted in
//!   [`RecoveryStats::shards_stolen`]). A chunk that exhausts its
//!   attempt budget degrades to the CPU host pool — or, with
//!   [`FleetPolicy::cpu_pool`] off, fails the run with the structured
//!   [`ReglaError::FleetUnavailable`] instead of hanging.
//! * **Chaos** — a seeded [`ChaosPlan`] kills devices at a given
//!   dispatch index, stalls their streams, or showers them with fault
//!   storms. The plan is pure data keyed on (device, dispatch index), so
//!   a rerun with the same plan reproduces the same campaign
//!   bit-identically.
//!
//! The scheduler is a sequential event loop driven by per-device
//! *simulated* clocks: the device with the smallest next-available time
//! dispatches next, ties break on the lowest device index, and every
//! clock advance comes from modeled launch statistics (which the
//! simulator guarantees bit-identical across host thread counts and the
//! fast/slow execution paths). Fleet results are therefore exactly
//! reproducible — the whole point of rehearsing failure handling on a
//! simulator.
//!
//! ```
//! use regla_core::{ChaosPlan, Fleet, MatBatch, Op};
//! use regla_gpu_sim::GpuConfig;
//!
//! let fleet = Fleet::builder()
//!     .device(GpuConfig::quadro_6000())
//!     .device(GpuConfig::gt200())
//!     .chaos(ChaosPlan::new(7).device_death(1, 0)) // device 1 never works
//!     .build()
//!     .unwrap();
//! let a = MatBatch::from_fn(8, 8, 64, |k, i, j| {
//!     ((k + i + 2 * j) % 5) as f32 + if i == j { 9.0 } else { 0.0 }
//! });
//! let run = fleet.run(Op::Lu, &a, None).unwrap();
//! assert!(run.output.run.status.iter().all(|s| s.is_ok()));
//! assert!(run.output.run.recovery.device_failovers > 0); // device 0 rescued device 1's shards
//! ```

use crate::api::{self, BatchRun, RunOpts};
use crate::batch::MatBatch;
use crate::elem::DeviceScalar;
use crate::error::ReglaError;
use crate::per_thread::PtAlg;
use crate::session::{Op, OpOutput, Session};
use crate::status::{ProblemStatus, RecoveryStats};
use crate::tiled::MultiLaunch;
use regla_gpu_sim::{FaultPlan, GpuConfig, LaunchError};
use regla_model::{Approach, PlanKey};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Simulated cost of a dispatch that failed without a modeled duration
/// (a dead device rejecting the launch): long enough to be visible on
/// the clock, far shorter than any real launch.
const FAIL_COST_S: f64 = 1e-5;

/// Consecutive failed dispatches that trip a device's breaker open. A
/// [`LaunchError::DeviceLost`] trips it at once.
const BREAKER_ERRORS: u32 = 2;

/// Trip the breaker when a *successful* dispatch reports at least this
/// fraction of its problems fault-detected (an unhealthy-but-alive
/// device).
const BREAKER_FAULT_RATE: f64 = 0.5;

/// First open interval, in simulated seconds. Every re-trip doubles it,
/// up to [`BREAKER_MAX_BACKOFF_S`].
const BREAKER_BACKOFF_S: f64 = 1e-3;

/// Backoff ceiling, in simulated seconds.
const BREAKER_MAX_BACKOFF_S: f64 = 1e-1;

// ---------------------------------------------------------------------
// Chaos injection
// ---------------------------------------------------------------------

/// One injected failure in a [`ChaosPlan`]. `at_launch` indices count
/// *dispatches* (one `Session` run per chunk) on that device, starting
/// at 0 and persisting across [`Fleet::run`] calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// From dispatch `at_launch` on, every launch on `device` fails with
    /// [`LaunchError::DeviceLost`] without running — CUDA's sticky
    /// device-lost semantics.
    DeviceDeath { device: usize, at_launch: usize },
    /// Dispatch `at_launch` on `device` is stretched by `stall_cycles`
    /// simulated cycles (a stalled stream). Functional output is
    /// untouched; with a deadline armed the stall can push the launch
    /// over budget.
    StreamStall {
        device: usize,
        at_launch: usize,
        stall_cycles: u64,
    },
    /// Dispatches `from_launch .. from_launch + launches` on `device`
    /// each run under a seeded [`FaultPlan`] injecting
    /// `faults_per_launch` block faults.
    FaultStorm {
        device: usize,
        from_launch: usize,
        launches: usize,
        faults_per_launch: usize,
    },
}

/// A seeded, replayable failure-injection campaign for a [`Fleet`].
///
/// The plan is pure data: effects are keyed on (device index, dispatch
/// index), and fault-storm PRNG seeds are derived from `seed`, the
/// device and the dispatch index — so the same plan over the same batch
/// reproduces the same failures, rescues and outputs bit-identically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Base seed for derived [`FaultPlan`]s.
    pub seed: u64,
    events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            events: Vec::new(),
        }
    }

    pub fn event(mut self, e: ChaosEvent) -> Self {
        self.events.push(e);
        self
    }

    /// Kill `device` permanently starting at dispatch `at_launch`.
    pub fn device_death(self, device: usize, at_launch: usize) -> Self {
        self.event(ChaosEvent::DeviceDeath { device, at_launch })
    }

    /// Stall dispatch `at_launch` on `device` by `stall_cycles` cycles.
    pub fn stream_stall(self, device: usize, at_launch: usize, stall_cycles: u64) -> Self {
        self.event(ChaosEvent::StreamStall {
            device,
            at_launch,
            stall_cycles,
        })
    }

    /// Inject `faults_per_launch` block faults into each of `launches`
    /// dispatches on `device` starting at `from_launch`.
    pub fn fault_storm(
        self,
        device: usize,
        from_launch: usize,
        launches: usize,
        faults_per_launch: usize,
    ) -> Self {
        self.event(ChaosEvent::FaultStorm {
            device,
            from_launch,
            launches,
            faults_per_launch,
        })
    }

    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    fn dead(&self, device: usize, launch: usize) -> bool {
        self.events.iter().any(|e| {
            matches!(e, ChaosEvent::DeviceDeath { device: d, at_launch }
                     if *d == device && launch >= *at_launch)
        })
    }

    fn stall(&self, device: usize, launch: usize) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                ChaosEvent::StreamStall {
                    device: d,
                    at_launch,
                    stall_cycles,
                } if *d == device && *at_launch == launch => *stall_cycles,
                _ => 0,
            })
            .sum()
    }

    fn storm(&self, device: usize, launch: usize) -> Option<FaultPlan> {
        self.events.iter().find_map(|e| match e {
            ChaosEvent::FaultStorm {
                device: d,
                from_launch,
                launches,
                faults_per_launch,
            } if *d == device && launch >= *from_launch && launch < from_launch + launches => {
                // Derived seed: same plan + same dispatch => same faults.
                let seed = self.seed ^ ((device as u64) << 32) ^ (launch as u64).wrapping_mul(0x9E37_79B9);
                Some(FaultPlan::new(seed, *faults_per_launch))
            }
            _ => None,
        })
    }
}

// ---------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------

/// Circuit-breaker state of one fleet device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: dispatches flow normally.
    #[default]
    Closed,
    /// Tripped: the device is parked until its backoff expires.
    Open,
    /// Backoff expired: the next dispatch is a probe — success closes
    /// the breaker, failure re-opens it with doubled backoff.
    HalfOpen,
}

/// Tuning for a [`Fleet`].
#[derive(Clone, Debug, PartialEq)]
pub struct FleetPolicy {
    /// Arm per-dispatch deadlines at (model worst-candidate price ×
    /// this factor) simulated cycles; `None` disables deadlines. The
    /// budget is derived per device and per chunk size, so a slower
    /// device gets a proportionally larger budget.
    pub deadline_slack: Option<f64>,
    /// Chunks each device's share is split into, clamped to ≥ 1. The
    /// default of 1 launches each share once, so one launch holds as
    /// many problems as the device was given. Each extra chunk buys
    /// finer rescue and steal granularity (a failure re-queues less
    /// work, and an idle device can take part of a straggler's share)
    /// at the cost of one more launch: one more partly filled wave,
    /// one more launch overhead and one more schedule-cache check of
    /// block 0.
    pub chunks_per_device: usize,
    /// Degrade chunks that exhaust their dispatch attempts to the CPU
    /// host pool. With this off such a chunk fails the whole run with
    /// [`ReglaError::FleetUnavailable`].
    pub cpu_pool: bool,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy {
            deadline_slack: None,
            chunks_per_device: 1,
            cpu_pool: true,
        }
    }
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// Per-device telemetry for one [`Fleet::run`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceReport {
    /// Device config name (e.g. `"quadro-6000"`).
    pub name: String,
    /// Problems the sharding planner assigned to this device.
    pub planned_problems: usize,
    /// Chunks the planner assigned to this device.
    pub planned_chunks: usize,
    /// Chunks this device actually completed (own + stolen + rescued).
    pub chunks_run: usize,
    /// Problems this device actually completed.
    pub problems_run: usize,
    /// Chunks this device stole from a straggler's queue.
    pub steals: usize,
    /// Previously-failed chunks this device rescued.
    pub rescues: usize,
    /// Dispatches on this device that returned a launch error.
    pub failed_dispatches: usize,
    /// Dispatches that blew their model-derived deadline.
    pub deadline_misses: usize,
    /// Problems reported fault-detected across this device's runs.
    pub faults_detected: usize,
    /// Times this device's breaker tripped open during the run.
    pub breaker_trips: usize,
    /// Breaker state at the end of the run.
    pub breaker_state: BreakerState,
    /// The device's simulated clock at the end of the run (seconds).
    pub sim_time_s: f64,
}

/// What the fleet scheduler did for one [`Fleet::run`], per device. The
/// fleet-wide failover, steal, deadline-miss, breaker-trip and CPU-pool
/// problem counts are in the run's [`RecoveryStats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetReport {
    pub devices: Vec<DeviceReport>,
    /// Total chunks the batch was split into.
    pub chunks: usize,
    /// Chunks degraded to the CPU host pool.
    pub cpu_pool_chunks: usize,
}

/// Result of [`Fleet::run`]: the merged batch output plus the fleet
/// telemetry.
#[derive(Clone, Debug)]
pub struct FleetRun<T> {
    pub output: OpOutput<T>,
    pub report: FleetReport,
}

// ---------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------

/// Builder for [`Fleet`]: device configs, base run options, policy,
/// optional chaos plan.
#[derive(Clone, Debug, Default)]
pub struct FleetBuilder {
    devices: Vec<GpuConfig>,
    opts: RunOpts,
    policy: FleetPolicy,
    chaos: Option<ChaosPlan>,
}

impl FleetBuilder {
    /// Add one device to the fleet.
    pub fn device(mut self, cfg: GpuConfig) -> Self {
        self.devices.push(cfg);
        self
    }

    /// Add several devices.
    pub fn devices(mut self, cfgs: impl IntoIterator<Item = GpuConfig>) -> Self {
        self.devices.extend(cfgs);
        self
    }

    /// Base [`RunOpts`] applied to every dispatch (the fleet layers its
    /// own deadline / stall / fault knobs on top per dispatch).
    pub fn opts(mut self, opts: RunOpts) -> Self {
        self.opts = opts;
        self
    }

    pub fn policy(mut self, policy: FleetPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a seeded chaos campaign.
    pub fn chaos(mut self, plan: impl Into<Option<ChaosPlan>>) -> Self {
        self.chaos = plan.into();
        self
    }

    pub fn build(self) -> Result<Fleet, ReglaError> {
        if self.devices.is_empty() {
            return Err(ReglaError::FleetUnavailable(
                "fleet has no devices; add at least one GpuConfig".into(),
            ));
        }
        // Degenerate configs used to slip through and only blow up later
        // inside sharding or clock arithmetic; reject them here with a
        // structured error instead.
        for (i, cfg) in self.devices.iter().enumerate() {
            if cfg.num_sms == 0 || cfg.fpus_per_sm == 0 || cfg.warp_size == 0 {
                return Err(ReglaError::InvalidConfig(format!(
                    "fleet device {i} ({}) has zero throughput \
                     (num_sms={}, fpus_per_sm={}, warp_size={})",
                    cfg.name, cfg.num_sms, cfg.fpus_per_sm, cfg.warp_size,
                )));
            }
            if !cfg.core_clock_ghz.is_finite() || cfg.core_clock_ghz <= 0.0 {
                return Err(ReglaError::InvalidConfig(format!(
                    "fleet device {i} ({}) has a non-positive core clock \
                     ({} GHz); the simulated clock cannot advance",
                    cfg.name, cfg.core_clock_ghz,
                )));
            }
        }
        let mut policy = self.policy;
        policy.chunks_per_device = policy.chunks_per_device.max(1);
        // Fleets of identical hardware are legal; disambiguate repeated
        // config names deterministically so reports and per-device
        // telemetry stay unambiguous ("quadro-6000", "quadro-6000#1", …).
        let mut seen: std::collections::HashMap<&'static str, usize> = std::collections::HashMap::new();
        let devices: Vec<FleetDevice> = self
            .devices
            .into_iter()
            .map(|cfg| {
                let dup = seen.entry(cfg.name).or_insert(0);
                let name = if *dup == 0 {
                    cfg.name.to_string()
                } else {
                    format!("{}#{dup}", cfg.name)
                };
                *dup += 1;
                FleetDevice {
                    session: Session::builder().config(cfg).build(),
                    name,
                }
            })
            .collect();
        let runtime = Mutex::new(devices.iter().map(|_| DeviceState::default()).collect());
        Ok(Fleet {
            devices,
            opts: self.opts,
            policy,
            chaos: self.chaos,
            runtime,
            totals: Mutex::default(),
        })
    }
}

struct FleetDevice {
    session: Session,
    name: String,
}

/// Persistent per-device scheduler state (clock, breaker) — survives
/// across [`Fleet::run`] calls so health history carries over.
#[derive(Clone, Debug)]
struct DeviceState {
    clock_s: f64,
    /// Dispatch counter, the index chaos events key on.
    dispatches: usize,
    breaker: BreakerState,
    open_until_s: f64,
    cur_backoff_s: f64,
    consec_errors: u32,
}

impl Default for DeviceState {
    fn default() -> Self {
        DeviceState {
            clock_s: 0.0,
            dispatches: 0,
            breaker: BreakerState::Closed,
            open_until_s: 0.0,
            cur_backoff_s: 0.0,
            consec_errors: 0,
        }
    }
}

impl DeviceState {
    /// When this device can next dispatch.
    fn avail_s(&self) -> f64 {
        match self.breaker {
            BreakerState::Open => self.clock_s.max(self.open_until_s),
            _ => self.clock_s,
        }
    }

    fn on_success(&mut self) {
        self.consec_errors = 0;
        self.breaker = BreakerState::Closed;
        self.cur_backoff_s = BREAKER_BACKOFF_S;
    }

    /// Register a failed dispatch; returns true when the breaker
    /// tripped open.
    fn on_failure(&mut self, fatal: bool) -> bool {
        self.consec_errors += 1;
        let trip = match self.breaker {
            // A failed half-open probe always re-opens.
            BreakerState::HalfOpen => true,
            _ => fatal || self.consec_errors >= BREAKER_ERRORS,
        };
        if trip {
            self.trip();
        }
        trip
    }

    fn trip(&mut self) {
        if self.cur_backoff_s <= 0.0 {
            self.cur_backoff_s = BREAKER_BACKOFF_S;
        }
        self.breaker = BreakerState::Open;
        self.open_until_s = self.clock_s + self.cur_backoff_s;
        self.cur_backoff_s = (self.cur_backoff_s * 2.0).min(BREAKER_MAX_BACKOFF_S);
    }
}

/// One contiguous shard of the batch, owned by a device but movable.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    start: usize,
    len: usize,
    owner: usize,
    attempts: usize,
    last_failed: Option<usize>,
}

/// A multi-device dispatcher over N simulated GPUs plus the CPU host
/// pool. See the [module docs](self) for the scheduling model.
pub struct Fleet {
    devices: Vec<FleetDevice>,
    opts: RunOpts,
    policy: FleetPolicy,
    chaos: Option<ChaosPlan>,
    runtime: Mutex<Vec<DeviceState>>,
    totals: Mutex<RecoveryStats>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("devices", &self.devices.iter().map(|d| &d.name).collect::<Vec<_>>())
            .field("policy", &self.policy)
            .field("chaos", &self.chaos)
            .finish_non_exhaustive()
    }
}

impl Fleet {
    pub fn builder() -> FleetBuilder {
        FleetBuilder::default()
    }

    /// Device sessions, in fleet index order (for inspection).
    pub fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.devices.iter().map(|d| &d.session)
    }

    /// Device names, in fleet index order (duplicated configs are
    /// disambiguated with a `#k` suffix at build time).
    pub fn device_names(&self) -> Vec<String> {
        self.devices.iter().map(|d| d.name.clone()).collect()
    }

    /// Each device's simulated clock, in seconds, as of the last
    /// completed run (clocks persist across runs).
    pub fn device_clocks(&self) -> Vec<f64> {
        self.runtime
            .lock()
            .expect("fleet runtime lock poisoned")
            .iter()
            .map(|s| s.clock_s)
            .collect()
    }

    /// Cumulative dispatch count per device (the index chaos events key
    /// on), as of the last completed run.
    pub fn device_dispatches(&self) -> Vec<usize> {
        self.runtime
            .lock()
            .expect("fleet runtime lock poisoned")
            .iter()
            .map(|s| s.dispatches)
            .collect()
    }

    /// Cumulative recovery totals across every fleet run (the fleet's
    /// own totals — device sessions also keep theirs).
    pub fn recovery_totals(&self) -> RecoveryStats {
        *self.totals.lock().expect("recovery totals lock poisoned")
    }

    /// Read and reset the fleet's recovery totals.
    pub fn take_recovery_totals(&self) -> RecoveryStats {
        std::mem::take(&mut *self.totals.lock().expect("recovery totals lock poisoned"))
    }

    /// Proportional shares of `count` problems by modeled throughput: each
    /// device weighs in at the inverse of its [`Session::price_or_worst`]
    /// of the whole run, in seconds on its own clock (largest-remainder
    /// rounding; equal weights when no device approach prices, e.g.
    /// GEMM).
    fn shares<T: DeviceScalar>(
        &self,
        op: Op,
        m: usize,
        n: usize,
        rhs: usize,
        count: usize,
        opts: &RunOpts,
    ) -> Vec<usize> {
        let weights: Vec<f64> = self
            .devices
            .iter()
            .map(|d| {
                let s = &d.session;
                s.price_or_worst::<T>(op, m, n, rhs, count, opts)
                    .map(|cycles| s.config().cycles_to_secs(cycles))
                    .map(|t| if t > 0.0 { 1.0 / t } else { 1.0 })
                    .unwrap_or(1.0)
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut shares: Vec<usize> = Vec::with_capacity(weights.len());
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
        let mut assigned = 0usize;
        for (i, w) in weights.iter().enumerate() {
            let exact = count as f64 * w / total;
            let base = exact.floor() as usize;
            shares.push(base);
            assigned += base;
            fracs.push((i, exact - base as f64));
        }
        // Hand out the remainder by largest fractional part, ties to the
        // lowest device index (sort is stable over the index order).
        fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (i, _) in fracs.into_iter().take(count - assigned) {
            shares[i] += 1;
        }
        shares
    }

    /// Per-dispatch deadline budget in simulated cycles for a
    /// `len`-problem chunk of `key`'s shape on `dev`: the slowest price
    /// over every approach ([`regla_model::worst_price`] over
    /// [`Approach::ALL`]), times the policy slack, so no legitimate
    /// approach choice can blow it. `None` when deadlines are disarmed or
    /// the model prices no approach.
    fn deadline_budget(&self, dev: usize, key: &PlanKey, len: usize) -> Option<u64> {
        let slack = self.policy.deadline_slack?;
        let session = &self.devices[dev].session;
        let (p, cfg) = (session.params(), session.config());
        let worst = regla_model::worst_price(p, cfg, key, &Approach::ALL, len)?;
        if !worst.is_finite() || worst <= 0.0 {
            return None;
        }
        Some((worst * slack).max(0.0).ceil() as u64)
    }

    /// Shard `a` (and `b`) across the fleet and run `op`, with failover,
    /// stealing, deadlines and the chaos plan applied. The merged output
    /// is in original problem order (bit-identical to one [`Session`] run
    /// under [`regla_gpu_sim::ExecMode::Full`]; each chunk samples on its
    /// own under the sampled modes).
    pub fn run<T: DeviceScalar>(
        &self,
        op: Op,
        a: &MatBatch<T>,
        b: Option<&MatBatch<T>>,
    ) -> Result<FleetRun<T>, ReglaError> {
        self.run_with(op, a, b, &self.opts)
    }

    /// [`Fleet::run`] with per-call options overriding the fleet's base
    /// [`RunOpts`] (the fleet still layers its own deadline / stall /
    /// fault knobs on top per dispatch). This is the submission surface
    /// the serving layer uses to carry request-level math/exec settings
    /// through a shared fleet.
    pub fn run_with<T: DeviceScalar>(
        &self,
        op: Op,
        a: &MatBatch<T>,
        b: Option<&MatBatch<T>>,
        opts: &RunOpts,
    ) -> Result<FleetRun<T>, ReglaError> {
        let count = a.count();
        if count == 0 {
            return Err(ReglaError::EmptyBatch);
        }
        let nd = self.devices.len();
        let rhs = b.map_or(0, |b| b.cols());
        let shares = self.shares::<T>(op, a.rows(), a.cols(), rhs, count, opts);
        // The shape every chunk's deadline is priced at.
        let deadline_key = op.model_algorithm().map(|alg| {
            let carried = op.carried_cols(a.cols(), rhs);
            PlanKey::new(alg, a.rows(), a.cols(), carried, T::WORDS, count, opts.math)
        });

        // Plan contiguous chunks in problem order so the final concat
        // reassembles the original batch.
        let mut chunks: Vec<Chunk> = Vec::new();
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); nd];
        let mut reports: Vec<DeviceReport> = self
            .devices
            .iter()
            .map(|d| DeviceReport {
                name: d.name.clone(),
                ..DeviceReport::default()
            })
            .collect();
        let mut start = 0usize;
        for (dev, &share) in shares.iter().enumerate() {
            reports[dev].planned_problems = share;
            if share == 0 {
                continue;
            }
            let nchunks = self.policy.chunks_per_device.min(share);
            reports[dev].planned_chunks = nchunks;
            for c in 0..nchunks {
                // Near-equal split of `share` into `nchunks` pieces.
                let lo = share * c / nchunks;
                let hi = share * (c + 1) / nchunks;
                let id = chunks.len();
                chunks.push(Chunk {
                    start: start + lo,
                    len: hi - lo,
                    owner: dev,
                    attempts: 0,
                    last_failed: None,
                });
                queues[dev].push_back(id);
            }
            start += share;
        }
        debug_assert_eq!(start, count);

        let mut state = self
            .runtime
            .lock()
            .expect("fleet runtime lock poisoned")
            .clone();
        let mut retry: VecDeque<usize> = VecDeque::new();
        let mut done: Vec<Option<OpOutput<T>>> = (0..chunks.len()).map(|_| None).collect();
        let mut report = FleetReport {
            chunks: chunks.len(),
            ..FleetReport::default()
        };
        let mut rec = RecoveryStats::default();
        let mut remaining = chunks.len();

        while remaining > 0 {
            // The device that can dispatch earliest goes next; ties
            // break to the lowest index for determinism.
            let dev = (0..nd)
                .min_by(|&x, &y| {
                    state[x]
                        .avail_s()
                        .partial_cmp(&state[y].avail_s())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("fleet has at least one device");
            let now = state[dev].avail_s();
            state[dev].clock_s = now;
            if state[dev].breaker == BreakerState::Open && now >= state[dev].open_until_s {
                state[dev].breaker = BreakerState::HalfOpen;
            }

            // Pick work: rescue a failed chunk (from another device if
            // possible), then our own queue, then steal from the most
            // loaded peer, then self-retry as a last resort.
            let mut rescued = false;
            let cid = if let Some(pos) =
                retry.iter().position(|&c| chunks[c].last_failed != Some(dev))
            {
                rescued = true;
                retry.remove(pos).expect("position came from this deque")
            } else if let Some(c) = queues[dev].pop_front() {
                c
            } else if let Some(victim) = (0..nd)
                .filter(|&v| v != dev && !queues[v].is_empty())
                .max_by_key(|&v| (queues[v].len(), std::cmp::Reverse(v)))
            {
                queues[victim].pop_back().expect("victim queue is non-empty")
            } else if let Some(c) = retry.pop_front() {
                rescued = true;
                c
            } else {
                // remaining > 0 means some chunk is queued somewhere.
                unreachable!("undone chunks must be queued");
            };

            let chunk = chunks[cid];
            let launch_idx = state[dev].dispatches;
            state[dev].dispatches += 1;

            let budget = deadline_key
                .as_ref()
                .and_then(|key| self.deadline_budget(dev, key, chunk.len));
            let res: Result<OpOutput<T>, ReglaError> = if self
                .chaos
                .as_ref()
                .is_some_and(|p| p.dead(dev, launch_idx))
            {
                // A dead device rejects the launch without running it.
                Err(ReglaError::Launch(LaunchError::DeviceLost { device: dev }))
            } else {
                let mut o = opts.clone();
                o.deadline_cycles = budget;
                if let Some(plan) = &self.chaos {
                    o.stall_cycles += plan.stall(dev, launch_idx);
                    if let Some(fp) = plan.storm(dev, launch_idx) {
                        o.fault = Some(fp);
                    }
                }
                let sub_a = a.slice_problems(chunk.start, chunk.len);
                let sub_b = b.map(|b| b.slice_problems(chunk.start, chunk.len));
                self.devices[dev]
                    .session
                    .run_with(op, &sub_a, sub_b.as_ref(), &o)
            };

            match res {
                Ok(out) => {
                    state[dev].clock_s += out.run.stats.time_s;
                    reports[dev].chunks_run += 1;
                    reports[dev].problems_run += chunk.len;
                    reports[dev].faults_detected += out.run.recovery.faults_detected as usize;
                    if rescued || chunk.attempts > 0 {
                        reports[dev].rescues += 1;
                        rec.device_failovers += 1;
                    } else if dev != chunk.owner {
                        reports[dev].steals += 1;
                        rec.shards_stolen += 1;
                    }
                    // Health gate: a device that "succeeds" while most of
                    // its problems come back fault-tainted is quarantined.
                    let rate = out.run.recovery.faults_detected as f64 / chunk.len.max(1) as f64;
                    if rate >= BREAKER_FAULT_RATE {
                        state[dev].trip();
                        reports[dev].breaker_trips += 1;
                        rec.breaker_trips += 1;
                    } else {
                        state[dev].on_success();
                    }
                    done[cid] = Some(out);
                    remaining -= 1;
                }
                Err(e) => {
                    let (fatal, cost_s) = match &e {
                        ReglaError::Launch(LaunchError::DeviceLost { .. }) => (true, FAIL_COST_S),
                        ReglaError::Launch(LaunchError::DeadlineExceeded { budget, .. }) => {
                            reports[dev].deadline_misses += 1;
                            rec.deadline_misses += 1;
                            (
                                false,
                                self.devices[dev]
                                    .session
                                    .config()
                                    .cycles_to_secs(*budget as f64),
                            )
                        }
                        ReglaError::Launch(_) => (false, FAIL_COST_S),
                        // Shape/option/model errors are deterministic
                        // input problems — no device would fare better.
                        _ => return Err(e),
                    };
                    state[dev].clock_s += cost_s;
                    reports[dev].failed_dispatches += 1;
                    if state[dev].on_failure(fatal) {
                        reports[dev].breaker_trips += 1;
                        rec.breaker_trips += 1;
                    }
                    chunks[cid].attempts += 1;
                    chunks[cid].last_failed = Some(dev);
                    if chunks[cid].attempts > nd {
                        // Every device (plus one) had its shot: degrade
                        // to the host pool or fail structurally.
                        if self.policy.cpu_pool {
                            done[cid] = Some(host_chunk(
                                op,
                                &a.slice_problems(chunk.start, chunk.len),
                                b.map(|b| b.slice_problems(chunk.start, chunk.len)).as_ref(),
                            )?);
                            report.cpu_pool_chunks += 1;
                            remaining -= 1;
                        } else {
                            return Err(ReglaError::FleetUnavailable(format!(
                                "chunk of {} problems failed on every device ({} attempts) \
                                 and the CPU pool is disabled: {e}",
                                chunk.len,
                                chunks[cid].attempts,
                            )));
                        }
                    } else {
                        retry.push_back(cid);
                    }
                }
            }
        }

        // Persist clocks/breakers for the next run, snapshot them into
        // the report.
        for (dev, rep) in reports.iter_mut().enumerate() {
            rep.breaker_state = state[dev].breaker;
            rep.sim_time_s = state[dev].clock_s;
        }
        *self.runtime.lock().expect("fleet runtime lock poisoned") = state;
        report.devices = reports;

        let parts: Vec<OpOutput<T>> = done
            .into_iter()
            .map(|o| o.expect("every chunk completed or the run errored"))
            .collect();
        let mut output = OpOutput::concat(parts);
        output.run.recovery.merge(&rec);
        self.totals
            .lock()
            .expect("recovery totals lock poisoned")
            .merge(&output.run.recovery);
        Ok(FleetRun { output, report })
    }
}

/// Compute one chunk entirely on the CPU host pool (degraded mode): the
/// system [`Op::stage`] builds, solved per problem by the host baseline
/// the recovery layer falls back to, and the answer [`Op::answer`] reads
/// back. GEMM runs the host matmul under the same finite screen.
fn host_chunk<T: DeviceScalar>(
    op: Op,
    a: &MatBatch<T>,
    b: Option<&MatBatch<T>>,
) -> Result<OpOutput<T>, ReglaError> {
    let count = a.count();
    let n = a.cols();
    // The pool reports its runs as `Approach::Hybrid`, which is not tiled:
    // least squares back-substitutes in place, like the device kernels.
    let (out, taus, status, solution) = match op.kernel(Approach::Hybrid) {
        None => {
            let b = op.rhs(b)?;
            let mut out = MatBatch::<T>::zeros(a.rows(), b.cols(), count);
            let status = (0..count)
                .map(|p| {
                    let c = a.mat(p).matmul(&b.mat(p));
                    out.set_mat(p, &c);
                    if api::all_finite(c.data()) {
                        ProblemStatus::Ok
                    } else {
                        ProblemStatus::NonFinite
                    }
                })
                .collect();
            (out, None, status, None)
        }
        Some(alg) => {
            let aug = op.stage(a, b)?;
            let mut out = MatBatch::<T>::zeros(aug.rows(), aug.cols(), count);
            let mut taus = (alg == PtAlg::Qr).then(|| MatBatch::<T>::zeros(n, 1, count));
            let status = (0..count)
                .map(|p| api::host_fallback(&aug, n, alg, p, &mut out, taus.as_mut()))
                .collect();
            let solution = op.answer(alg, &out, n, std::slice::from_ref(&(0..count)));
            (out, taus, status, solution)
        }
    };
    Ok(OpOutput {
        run: BatchRun {
            out,
            approach: Approach::Hybrid,
            stats: MultiLaunch::default(),
            taus,
            status,
            recovery: RecoveryStats {
                cpu_degraded: count as u64,
                ..RecoveryStats::default()
            },
            profile: None,
            sanitizer: None,
        },
        solution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dd_batch(n: usize, count: usize) -> MatBatch<f32> {
        MatBatch::from_fn(n, n, count, |k, i, j| {
            let v = (((k * 31 + i * 7 + j * 3) % 17) as f32) / 17.0 - 0.4;
            if i == j {
                v + n as f32
            } else {
                v
            }
        })
    }

    #[test]
    fn zero_devices_is_a_structured_error() {
        let err = Fleet::builder().build().unwrap_err();
        assert!(matches!(err, ReglaError::FleetUnavailable(_)));
        assert!(err.to_string().contains("no devices"));
    }

    #[test]
    fn zero_throughput_device_is_rejected_at_build() {
        let mut cfg = GpuConfig::quadro_6000();
        cfg.num_sms = 0;
        let err = Fleet::builder().device(cfg).build().unwrap_err();
        assert!(matches!(err, ReglaError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("zero throughput"), "{err}");
    }

    #[test]
    fn non_positive_clock_is_rejected_at_build() {
        for bad in [0.0, -1.2, f64::NAN] {
            let mut cfg = GpuConfig::gt200();
            cfg.core_clock_ghz = bad;
            let err = Fleet::builder()
                .device(GpuConfig::quadro_6000())
                .device(cfg)
                .build()
                .unwrap_err();
            assert!(matches!(err, ReglaError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains("device 1"), "{err}");
        }
    }

    #[test]
    fn duplicate_device_configs_stay_legal_and_get_distinct_names() {
        let fleet = Fleet::builder()
            .device(GpuConfig::quadro_6000())
            .device(GpuConfig::quadro_6000())
            .device(GpuConfig::quadro_6000())
            .build()
            .unwrap();
        let names = fleet.device_names();
        assert_eq!(names.len(), 3);
        assert_eq!(names[0], GpuConfig::quadro_6000().name);
        assert_eq!(names[1], format!("{}#1", names[0]));
        assert_eq!(names[2], format!("{}#2", names[0]));
        // Homogeneous twins still run and agree with a single session.
        let a = dd_batch(6, 40);
        let run = fleet.run(Op::Lu, &a, None).unwrap();
        let sref = Session::new().run(Op::Lu, &a, None).unwrap();
        assert_eq!(run.output.run.out.data(), sref.run.out.data());
    }

    #[test]
    fn single_device_fleet_matches_session_bit_for_bit() {
        let cfg = GpuConfig::quadro_6000();
        let a = dd_batch(10, 130); // not divisible by 4 chunks
        let session = Session::with_config(cfg.clone());
        let sref = session.run(Op::Qr, &a, None).unwrap();
        for chunks_per_device in [1, 4] {
            let fleet = Fleet::builder()
                .device(cfg.clone())
                .policy(FleetPolicy {
                    chunks_per_device,
                    ..FleetPolicy::default()
                })
                .build()
                .unwrap();
            let frun = fleet.run(Op::Qr, &a, None).unwrap();
            assert_eq!(frun.report.chunks, chunks_per_device);
            assert_eq!(frun.output.run.out.data(), sref.run.out.data());
            assert_eq!(
                frun.output.run.taus.as_ref().unwrap().data(),
                sref.run.taus.as_ref().unwrap().data()
            );
            assert_eq!(frun.output.run.status, sref.run.status);
            assert_eq!(frun.output.run.recovery, RecoveryStats::default());
        }
    }

    #[test]
    fn healthy_fleet_launches_each_share_once_by_default() {
        let fleet = Fleet::builder()
            .device(GpuConfig::quadro_6000())
            .device(GpuConfig::gt200())
            .build()
            .unwrap();
        let run = fleet.run(Op::Lu, &dd_batch(8, 210), None).unwrap();
        for d in &run.report.devices {
            assert!(d.planned_problems > 0, "{:?}", run.report);
            assert_eq!(d.planned_chunks, 1, "{}", d.name);
        }
        assert_eq!(run.report.chunks, 2);
    }

    #[test]
    fn sharding_is_throughput_proportional_and_covers_the_batch() {
        let fleet = Fleet::builder()
            .device(GpuConfig::quadro_6000())
            .device(GpuConfig::gt200())
            .build()
            .unwrap();
        let shares = fleet.shares::<f32>(Op::Lu, 8, 8, 0, 1000, &RunOpts::default());
        assert_eq!(shares.iter().sum::<usize>(), 1000);
        assert!(shares.iter().all(|&s| s > 0), "shares = {shares:?}");
        // Different devices get different (throughput-weighted) shares,
        // not a naive even split.
        assert_ne!(shares[0], shares[1], "shares = {shares:?}");
    }

    #[test]
    fn device_death_fails_over_and_still_solves_everything() {
        let a = dd_batch(8, 96);
        let fleet = Fleet::builder()
            .device(GpuConfig::quadro_6000())
            .device(GpuConfig::quadro_6000_dual_copy())
            .chaos(ChaosPlan::new(3).device_death(1, 0))
            .build()
            .unwrap();
        let run = fleet.run(Op::Lu, &a, None).unwrap();
        assert!(run.output.run.status.iter().all(|s| s.is_ok()));
        assert!(run.output.run.recovery.device_failovers > 0);
        assert!(run.output.run.recovery.breaker_trips > 0);
        assert_eq!(run.report.devices[1].chunks_run, 0);
        assert_eq!(run.report.devices[1].breaker_state, BreakerState::Open);
        // The survivor computed the whole batch, bit-identical to a
        // plain session (functional results are device-independent).
        let sref = Session::new().run(Op::Lu, &a, None).unwrap();
        assert_eq!(run.output.run.out.data(), sref.run.out.data());
    }

    #[test]
    fn seeded_chaos_reruns_bit_identically() {
        let a = dd_batch(6, 64);
        let build = || {
            Fleet::builder()
                .device(GpuConfig::quadro_6000())
                .device(GpuConfig::gt200())
                .chaos(
                    ChaosPlan::new(11)
                        .device_death(1, 2)
                        .fault_storm(0, 0, 2, 3),
                )
                .build()
                .unwrap()
        };
        let r1 = build().run(Op::GjSolve, &a, Some(&dd_batch(6, 64).sub(0, 0, 6, 1))).unwrap();
        let r2 = build().run(Op::GjSolve, &a, Some(&dd_batch(6, 64).sub(0, 0, 6, 1))).unwrap();
        assert_eq!(r1.output.run.out.data(), r2.output.run.out.data());
        assert_eq!(r1.output.run.status, r2.output.run.status);
        assert_eq!(r1.output.run.recovery, r2.output.run.recovery);
        assert_eq!(r1.report, r2.report);
    }

    #[test]
    fn impossible_deadline_degrades_to_cpu_pool() {
        let a = dd_batch(8, 40);
        let fleet = Fleet::builder()
            .device(GpuConfig::quadro_6000())
            .policy(FleetPolicy {
                deadline_slack: Some(1e-12), // budget rounds to ~0 cycles
                ..FleetPolicy::default()
            })
            .build()
            .unwrap();
        let run = fleet.run(Op::Lu, &a, None).unwrap();
        assert!(run.output.run.recovery.deadline_misses > 0);
        assert_eq!(run.output.run.recovery.cpu_degraded, 40);
        assert!(run.output.run.status.iter().all(|s| s.is_ok()));
        // Telemetry flows into the fleet totals.
        assert!(fleet.recovery_totals().deadline_misses > 0);
        assert_eq!(fleet.recovery_totals().cpu_degraded, 40);
    }

    #[test]
    fn all_devices_dead_without_cpu_pool_is_structured() {
        let a = dd_batch(6, 16);
        let fleet = Fleet::builder()
            .device(GpuConfig::quadro_6000())
            .device(GpuConfig::gt200())
            .policy(FleetPolicy {
                cpu_pool: false,
                ..FleetPolicy::default()
            })
            .chaos(ChaosPlan::new(1).device_death(0, 0).device_death(1, 0))
            .build()
            .unwrap();
        let err = fleet.run(Op::Lu, &a, None).unwrap_err();
        assert!(matches!(err, ReglaError::FleetUnavailable(_)));
    }

    #[test]
    fn fault_storm_is_recovered_and_gates_health() {
        let a = dd_batch(8, 64);
        let fleet = Fleet::builder()
            .device(GpuConfig::quadro_6000())
            .device(GpuConfig::quadro_6000_dual_copy())
            .chaos(ChaosPlan::new(5).fault_storm(0, 0, 8, 64))
            .build()
            .unwrap();
        let run = fleet.run(Op::Lu, &a, None).unwrap();
        // Recovery (retry w/o faults) settles every problem.
        assert!(run.output.run.status.iter().all(|s| s.is_ok()));
        assert!(run.output.run.recovery.faults_detected > 0);
        let sref = Session::new().run(Op::Lu, &a, None).unwrap();
        assert_eq!(run.output.run.out.data(), sref.run.out.data());
    }

    #[test]
    fn solutions_survive_failover_for_solution_ops() {
        let n = 6;
        let a = dd_batch(n, 48);
        let fleet = Fleet::builder()
            .device(GpuConfig::quadro_6000())
            .device(GpuConfig::gt200())
            .chaos(ChaosPlan::new(9).device_death(1, 0))
            .build()
            .unwrap();
        let run = fleet.run(Op::Invert, &a, None).unwrap();
        let inv = run.output.solution.as_ref().unwrap();
        assert_eq!(inv.rows(), n);
        assert_eq!(inv.cols(), n);
        assert_eq!(inv.count(), 48);
        let sref = Session::new().run(Op::Invert, &a, None).unwrap();
        assert_eq!(inv.data(), sref.solution.as_ref().unwrap().data());
    }

    #[test]
    fn host_chunk_matches_host_semantics_per_op() {
        let n = 5;
        let a = dd_batch(n, 9);
        let b = dd_batch(n, 9).sub(0, 0, n, 1);
        // Least squares takes a tall 8 x 5 system.
        let tall = dd_batch(8, 9).sub(0, 0, 8, n);
        let tall_b = dd_batch(8, 9).sub(0, 0, 8, 1);
        // SPD: AᵀA of a diagonally dominant batch.
        let spd = MatBatch::from_fn(n, n, 9, |k, i, j| {
            let m = a.mat(k);
            (0..n).map(|t| m[(t, i)] * m[(t, j)]).sum::<f32>()
        });
        for op in Op::ALL {
            let (a, bb) = match op {
                Op::Cholesky => (spd.clone(), None),
                Op::LeastSquares => (tall.clone(), Some(tall_b.clone())),
                Op::Gemm => (a.clone(), Some(a.clone())),
                _ => (a.clone(), op.needs_rhs().then(|| b.clone())),
            };
            let out = host_chunk(op, &a, bb.as_ref()).unwrap();
            assert_eq!(out.run.status.len(), 9, "{op:?}");
            assert!(out.run.status.iter().all(|s| s.is_settled()), "{op:?}");
            assert_eq!(out.run.recovery.cpu_degraded, 9, "{op:?}");
            assert_eq!(out.run.approach, Approach::Hybrid, "{op:?}");
            // `x` is n x 1 and `A⁻¹` n x n; the other ops answer in `out`.
            let shape = out
                .solution
                .as_ref()
                .map(|s| (s.rows(), s.cols(), s.count()));
            let want = match op {
                Op::LeastSquares => Some((n, 1, 9)),
                Op::Invert => Some((n, n, 9)),
                _ => None,
            };
            assert_eq!(shape, want, "{op:?}");
        }
    }

    #[test]
    fn breaker_backoff_doubles_and_half_open_probe_recloses() {
        let mut d = DeviceState::default();
        for _ in 1..BREAKER_ERRORS {
            assert!(!d.on_failure(false));
        }
        assert!(d.on_failure(false)); // the BREAKER_ERRORS-th failure trips
        assert_eq!(d.breaker, BreakerState::Open);
        let first_until = d.open_until_s;
        assert_eq!(first_until, d.clock_s + BREAKER_BACKOFF_S);
        // Past the backoff the device probes half-open.
        d.clock_s = first_until;
        d.breaker = BreakerState::HalfOpen;
        assert!(d.on_failure(false)); // probe fails -> reopen
        assert!(d.open_until_s - d.clock_s > BREAKER_BACKOFF_S * 1.5); // doubled
        d.breaker = BreakerState::HalfOpen;
        d.on_success();
        assert_eq!(d.breaker, BreakerState::Closed);
        assert_eq!(d.consec_errors, 0);
    }

    #[test]
    fn device_lost_trips_immediately() {
        let mut d = DeviceState::default();
        assert!(d.on_failure(true));
        assert_eq!(d.breaker, BreakerState::Open);
    }
}
