//! The deterministic discrete-event solve service: bounded queue,
//! model-priced admission control, micro-batching with a deadline-driven
//! flush policy, and per-request de-interleaving.
//!
//! Time in this module is always the **simulated clock** (seconds): the
//! engine advances a single logical timeline from request arrival times
//! and modeled launch durations, so the whole served campaign is
//! bit-reproducible from the same request stream at any host-thread
//! count.

use regla_core::elem::DeviceScalar;
use regla_core::{Fleet, MatBatch, Op, OpOutput, RunOpts};
use regla_gpu_sim::MathMode;

/// Fallback per-problem service estimate (simulated seconds) for
/// operations the predictive model has no candidate for (GEMM).
const FALLBACK_EST_PER_PROBLEM_S: f64 = 1e-6;

/// Why a request was shed (or failed) instead of being served.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The bounded request queue is at capacity; retry later.
    QueueFull { queued: usize, capacity: usize },
    /// Admitting the request would push the predicted backlog past the
    /// admission budget: the service sheds early instead of queueing work
    /// it cannot finish in time.
    BacklogExceeded {
        predicted_backlog_s: f64,
        budget_s: f64,
    },
    /// The request is malformed (empty batch, missing right-hand side);
    /// no amount of retrying will help.
    InvalidRequest(String),
    /// The coalesced dispatch this request rode on failed structurally
    /// (the fleet's own recovery already absorbed device failures; this
    /// is a shape/config/model error surfaced by the run).
    Dispatch(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { queued, capacity } => {
                write!(f, "request queue full ({queued} of {capacity})")
            }
            ServeError::BacklogExceeded {
                predicted_backlog_s,
                budget_s,
            } => write!(
                f,
                "predicted backlog {predicted_backlog_s:.3e}s exceeds the \
                 admission budget {budget_s:.3e}s"
            ),
            ServeError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            ServeError::Dispatch(m) => write!(f, "dispatch failed: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One client request: run `op` over a batch of problems, with a
/// per-request latency budget on the simulated clock.
#[derive(Clone, Debug)]
pub struct SolveRequest<T> {
    /// Caller-chosen identifier, echoed on the [`Response`].
    pub id: u64,
    pub op: Op,
    pub a: MatBatch<T>,
    /// Right-hand-side batch for the operations that need one.
    pub b: Option<MatBatch<T>>,
    /// Requested math mode; part of the coalescing key.
    pub math: MathMode,
    /// Arrival time on the simulated clock (seconds).
    pub arrival_s: f64,
    /// Per-request latency budget; `None` uses [`ServeConfig`]'s default.
    pub latency_budget_s: Option<f64>,
    /// Originating client stream (used only for deterministic tie-breaks
    /// and reporting).
    pub client: usize,
}

impl<T> SolveRequest<T> {
    pub fn new(id: u64, op: Op, a: MatBatch<T>) -> Self {
        SolveRequest {
            id,
            op,
            a,
            b: None,
            math: MathMode::default(),
            arrival_s: 0.0,
            latency_budget_s: None,
            client: 0,
        }
    }

    pub fn rhs(mut self, b: MatBatch<T>) -> Self {
        self.b = Some(b);
        self
    }

    pub fn math(mut self, math: MathMode) -> Self {
        self.math = math;
        self
    }

    pub fn arrival_s(mut self, t: f64) -> Self {
        self.arrival_s = t;
        self
    }

    pub fn latency_budget_s(mut self, t: f64) -> Self {
        self.latency_budget_s = Some(t);
        self
    }

    pub fn client(mut self, c: usize) -> Self {
        self.client = c;
        self
    }
}

/// Tuning for a [`ServeEngine`]. `#[non_exhaustive]` with builder-style
/// setters, like [`RunOpts`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Maximum requests queued (admitted but not yet dispatched); the
    /// bound on the request queue.
    pub queue_capacity: usize,
    /// Admission ceiling on the predicted backlog — residual busy time
    /// plus the modeled service time of everything queued plus the new
    /// request — in simulated seconds.
    pub backlog_budget_s: f64,
    /// Default per-request latency budget (simulated seconds); drives the
    /// deadline side of the flush policy.
    pub latency_budget_s: f64,
    /// Hard cap on problems per coalesced dispatch (the fill target is
    /// the smaller of this and the model's saturation batch summed over
    /// the fleet's devices).
    pub max_coalesced_problems: usize,
    /// Coalesce compatible requests into shared dispatches. Off = one
    /// request per dispatch (the baseline the acceptance gate compares
    /// against).
    pub coalesce: bool,
    /// Base run options applied to every dispatch (each dispatch overrides
    /// `math` with the group's requested mode).
    pub opts: RunOpts,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 4096,
            backlog_budget_s: 5e-2,
            latency_budget_s: 5e-3,
            max_coalesced_problems: 16384,
            coalesce: true,
            opts: RunOpts::default(),
        }
    }
}

impl ServeConfig {
    pub fn queue_capacity(mut self, v: usize) -> Self {
        self.queue_capacity = v;
        self
    }

    pub fn backlog_budget_s(mut self, v: f64) -> Self {
        self.backlog_budget_s = v;
        self
    }

    pub fn latency_budget_s(mut self, v: f64) -> Self {
        self.latency_budget_s = v;
        self
    }

    pub fn max_coalesced_problems(mut self, v: usize) -> Self {
        self.max_coalesced_problems = v.max(1);
        self
    }

    pub fn coalesce(mut self, v: bool) -> Self {
        self.coalesce = v;
        self
    }

    pub fn opts(mut self, opts: RunOpts) -> Self {
        self.opts = opts;
        self
    }
}

/// The resolved outcome of one request.
#[derive(Clone, Debug)]
pub struct Response<T> {
    pub id: u64,
    pub client: usize,
    pub arrival_s: f64,
    /// Completion time on the simulated clock; equals `arrival_s` for
    /// shed requests (the rejection is immediate).
    pub completion_s: f64,
    pub result: Result<OpOutput<T>, ServeError>,
}

impl<T> Response<T> {
    /// Request latency on the simulated clock (0 for shed requests).
    pub fn latency_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }
}

/// Aggregate metrics of one served campaign.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeReport {
    /// Requests offered by the traffic source.
    pub offered: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Requests shed by admission control (queue full / backlog).
    pub shed: usize,
    /// Requests that failed structurally (invalid shape, dispatch error).
    pub request_errors: usize,
    /// Fleet dispatches issued (coalesced launches).
    pub dispatches: usize,
    /// Problems served to completion.
    pub problems: usize,
    /// Served requests per dispatch — the coalescing factor.
    pub coalescing: f64,
    /// `shed / offered`.
    pub shed_rate: f64,
    /// Request latency percentiles over served requests, simulated ms.
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    /// Served requests that blew their latency budget (served late rather
    /// than shed).
    pub late: usize,
    /// First arrival to last completion, simulated seconds.
    pub makespan_s: f64,
    /// Simulated seconds the service was busy dispatching.
    pub busy_s: f64,
    /// Served problems per simulated second of makespan (the open-loop
    /// delivered throughput).
    pub problems_per_sec: f64,
    /// Served problems per simulated second of busy time (the service
    /// capacity — what the ≥2x coalescing gate measures).
    pub busy_problems_per_sec: f64,
    /// Per-device dispatch counts over the campaign, in fleet order.
    pub device_dispatches: Vec<(String, usize)>,
}

/// Everything the engine produced: per-request responses (in offered
/// order) plus the aggregate report.
#[derive(Clone, Debug)]
pub struct ServeOutcome<T> {
    pub report: ServeReport,
    pub responses: Vec<Response<T>>,
}

/// Coalescing key: requests merge into one dispatch only when every
/// component matches (the element type is fixed by the `serve` call's
/// type parameter).
#[derive(Clone, Copy, Debug, PartialEq)]
struct GroupKey {
    op: Op,
    m: usize,
    n: usize,
    rhs_cols: usize,
    math: MathMode,
}

struct Group<T> {
    key: GroupKey,
    reqs: Vec<SolveRequest<T>>,
    problems: usize,
}

impl<T> Group<T> {
    fn oldest_arrival_s(&self) -> f64 {
        // Requests join in arrival order; the first is the oldest.
        self.reqs[0].arrival_s
    }
}

/// The async solve service: owns a [`Fleet`] and runs request streams
/// through admission, micro-batching and dispatch on the simulated clock.
pub struct ServeEngine {
    fleet: Fleet,
    cfg: ServeConfig,
    /// Memoized fill targets per coalescing key.
    fill_targets: Vec<(GroupKey, usize)>,
}

impl ServeEngine {
    pub fn new(fleet: Fleet, cfg: ServeConfig) -> Self {
        ServeEngine {
            fleet,
            cfg,
            fill_targets: Vec::new(),
        }
    }

    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Run options of a dispatch of `key`'s group: the base options with
    /// the group's math mode.
    fn dispatch_opts(&self, key: &GroupKey) -> RunOpts {
        let mut opts = self.cfg.opts.clone();
        opts.math = key.math;
        opts
    }

    /// Modeled service seconds for `problems` problems of `key`'s shape on
    /// the fleet's first device: the price of the plan that dispatch
    /// resolves (a deliberate single-device price: the admission
    /// controller wants a stable, conservative unit, not the sharded
    /// optimum).
    fn service_estimate_s<T: DeviceScalar>(&self, key: &GroupKey, problems: usize) -> f64 {
        let session = self.fleet.sessions().next().expect("fleet has devices");
        let opts = self.dispatch_opts(key);
        let kernel = session
            .price::<T>(key.op, key.m, key.n, key.rhs_cols, problems, &opts)
            .map(|cycles| session.config().cycles_to_secs(cycles))
            .unwrap_or(FALLBACK_EST_PER_PROBLEM_S * problems as f64);
        // The verified tier pays its host-side screens up front in the
        // admission price, so turning verification on tightens (never
        // silently overruns) the backlog budget.
        let verify = key
            .op
            .model_algorithm()
            .map(|alg| {
                regla_model::verify_seconds(
                    alg,
                    key.m,
                    key.n,
                    key.rhs_cols,
                    problems,
                    self.cfg.opts.verify,
                )
            })
            .unwrap_or(0.0);
        kernel + verify
    }

    /// Problems at which a coalesced dispatch of `key` is predicted to
    /// fill the whole fleet (sum of per-device saturation batches of the
    /// plan the dispatch resolves, capped by
    /// [`ServeConfig::max_coalesced_problems`], which is also the target
    /// when some device has no price for the shape).
    fn fill_target<T: DeviceScalar>(&mut self, key: &GroupKey) -> usize {
        if !self.cfg.coalesce {
            // One request per dispatch: every group is immediately "full",
            // so the baseline behaves like a plain FIFO server instead of
            // idling until the deadline.
            return 1;
        }
        if let Some((_, t)) = self.fill_targets.iter().find(|(k, _)| k == key) {
            return *t;
        }
        let opts = self.dispatch_opts(key);
        let modeled: Option<usize> = self
            .fleet
            .sessions()
            .map(|s| {
                saturation_batch(|b| s.price::<T>(key.op, key.m, key.n, key.rhs_cols, b, &opts))
            })
            .sum();
        let target = modeled
            .unwrap_or(self.cfg.max_coalesced_problems)
            .clamp(1, self.cfg.max_coalesced_problems);
        self.fill_targets.push((*key, target));
        target
    }

    /// Serve an open-loop request stream to completion.
    ///
    /// Requests are processed in (arrival, client, id) order; admission,
    /// batching and dispatch are pure functions of the stream and the
    /// simulated clock, so the outcome is bit-identical across reruns and
    /// host-thread counts.
    pub fn serve<T: DeviceScalar>(&mut self, mut reqs: Vec<SolveRequest<T>>) -> ServeOutcome<T> {
        reqs.sort_by(|a, b| {
            a.arrival_s
                .total_cmp(&b.arrival_s)
                .then(a.client.cmp(&b.client))
                .then(a.id.cmp(&b.id))
        });
        let offered = reqs.len();
        let first_arrival_s = reqs.first().map_or(0.0, |r| r.arrival_s);
        let dispatches_before = self.fleet.device_dispatches();

        let mut groups: Vec<Group<T>> = Vec::new();
        let mut queued = 0usize;
        let mut busy_until_s = f64::NEG_INFINITY;
        let mut busy_s = 0.0f64;
        let mut now_s = first_arrival_s;
        let mut dispatches = 0usize;
        let mut responses: Vec<Response<T>> = Vec::new();
        let mut latencies: Vec<f64> = Vec::new();
        let mut late = 0usize;
        let mut problems = 0usize;
        let mut served = 0usize;
        let mut shed = 0usize;
        let mut request_errors = 0usize;
        let mut last_completion_s = first_arrival_s;

        let mut stream = reqs.into_iter().peekable();
        while stream.peek().is_some() || !groups.is_empty() {
            // -- time of the next arrival, if any ------------------------
            let t_arrival = stream.peek().map_or(f64::INFINITY, |r| r.arrival_s);

            if groups.is_empty() {
                // Nothing queued: jump to the next arrival and admit it.
                now_s = now_s.max(t_arrival);
                let req = stream.next().expect("loop guard: stream non-empty");
                self.admit(
                    req,
                    now_s,
                    busy_until_s,
                    &mut groups,
                    &mut queued,
                    &mut responses,
                    &mut shed,
                    &mut request_errors,
                );
                continue;
            }

            // -- earliest moment some queued group must start to honour
            //    its oldest request's latency budget ----------------------
            let draining = stream.peek().is_none();
            let t_deadline = groups
                .iter()
                .map(|g| {
                    let est = self.service_estimate_s::<T>(&g.key, g.problems);
                    let budget = g.reqs[0]
                        .latency_budget_s
                        .unwrap_or(self.cfg.latency_budget_s);
                    g.oldest_arrival_s() + budget - est
                })
                .fold(f64::INFINITY, f64::min);
            let any_full = groups
                .iter()
                .map(|g| (g.key, g.problems))
                .collect::<Vec<_>>()
                .into_iter()
                .any(|(key, p)| p >= self.fill_target::<T>(&key));
            let t_start = if any_full || draining {
                busy_until_s.max(now_s)
            } else {
                busy_until_s.max(t_deadline).max(now_s)
            };

            if t_arrival <= t_start {
                // The next arrival happens before we would dispatch.
                now_s = now_s.max(t_arrival);
                let req = stream.next().expect("finite arrival implies a request");
                self.admit(
                    req,
                    now_s,
                    busy_until_s,
                    &mut groups,
                    &mut queued,
                    &mut responses,
                    &mut shed,
                    &mut request_errors,
                );
                continue;
            }

            // -- flush: a full group first (insertion order), else the
            //    group whose deadline forced the start -------------------
            now_s = t_start;
            let gi = (0..groups.len())
                .find(|&i| {
                    let (key, p) = (groups[i].key, groups[i].problems);
                    p >= self.fill_target::<T>(&key)
                })
                .unwrap_or_else(|| {
                    if draining {
                        0
                    } else {
                        (0..groups.len())
                            .min_by(|&x, &y| {
                                let d = |i: usize| {
                                    let g = &groups[i];
                                    let est = self.service_estimate_s::<T>(&g.key, g.problems);
                                    let budget = g.reqs[0]
                                        .latency_budget_s
                                        .unwrap_or(self.cfg.latency_budget_s);
                                    g.oldest_arrival_s() + budget - est
                                };
                                d(x).total_cmp(&d(y))
                            })
                            .expect("groups is non-empty")
                    }
                });
            let group = groups.remove(gi);
            queued -= group.reqs.len();

            // Coalesce the group into one fleet dispatch.
            let lens: Vec<usize> = group.reqs.iter().map(|r| r.a.count()).collect();
            let a_parts: Vec<MatBatch<T>> = group.reqs.iter().map(|r| r.a.clone()).collect();
            let a = MatBatch::concat_problems(&a_parts);
            let b = if group.key.rhs_cols > 0 {
                let parts: Vec<MatBatch<T>> = group
                    .reqs
                    .iter()
                    .map(|r| r.b.clone().expect("rhs checked at admission"))
                    .collect();
                Some(MatBatch::concat_problems(&parts))
            } else {
                None
            };
            let opts = self.dispatch_opts(&group.key);

            let clocks_before = self.fleet.device_clocks();
            let run = self.fleet.run_with(group.key.op, &a, b.as_ref(), &opts);
            let clocks_after = self.fleet.device_clocks();
            let service_s = clocks_before
                .iter()
                .zip(&clocks_after)
                .map(|(b, a)| a - b)
                .fold(0.0f64, f64::max);

            dispatches += 1;
            busy_until_s = now_s + service_s;
            busy_s += service_s;
            let completion_s = busy_until_s;
            last_completion_s = last_completion_s.max(completion_s);

            match run {
                Ok(fr) => {
                    let mut pieces = fr.output.split_problems(&lens);
                    // split_problems returns in order; pair back up.
                    for (req, piece) in group.reqs.into_iter().zip(pieces.drain(..)) {
                        let latency = completion_s - req.arrival_s;
                        let budget = req.latency_budget_s.unwrap_or(self.cfg.latency_budget_s);
                        if latency > budget {
                            late += 1;
                        }
                        latencies.push(latency);
                        problems += req.a.count();
                        served += 1;
                        responses.push(Response {
                            id: req.id,
                            client: req.client,
                            arrival_s: req.arrival_s,
                            completion_s,
                            result: Ok(piece),
                        });
                    }
                }
                Err(e) => {
                    // Structural failure: every rider gets the error. The
                    // fleet already absorbed device-level failures, so
                    // this is an input/config problem, not chaos.
                    let msg = e.to_string();
                    for req in group.reqs {
                        request_errors += 1;
                        responses.push(Response {
                            id: req.id,
                            client: req.client,
                            arrival_s: req.arrival_s,
                            completion_s,
                            result: Err(ServeError::Dispatch(msg.clone())),
                        });
                    }
                }
            }
        }

        // -- aggregate ----------------------------------------------------
        latencies.sort_by(f64::total_cmp);
        let pct = |q: f64| -> f64 {
            if latencies.is_empty() {
                return 0.0;
            }
            let idx = ((q * latencies.len() as f64).ceil() as usize)
                .clamp(1, latencies.len())
                - 1;
            latencies[idx] * 1e3
        };
        let makespan_s = (last_completion_s - first_arrival_s).max(0.0);
        let dispatches_after = self.fleet.device_dispatches();
        let device_dispatches = self
            .fleet
            .device_names()
            .into_iter()
            .zip(
                dispatches_after
                    .iter()
                    .zip(&dispatches_before)
                    .map(|(a, b)| a - b),
            )
            .collect();

        responses.sort_by_key(|r| r.id);
        let report = ServeReport {
            offered,
            served,
            shed,
            request_errors,
            dispatches,
            problems,
            coalescing: if dispatches > 0 {
                served as f64 / dispatches as f64
            } else {
                0.0
            },
            shed_rate: if offered > 0 {
                shed as f64 / offered as f64
            } else {
                0.0
            },
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
            p999_ms: pct(0.999),
            late,
            makespan_s,
            busy_s,
            problems_per_sec: if makespan_s > 0.0 {
                problems as f64 / makespan_s
            } else {
                0.0
            },
            busy_problems_per_sec: if busy_s > 0.0 {
                problems as f64 / busy_s
            } else {
                0.0
            },
            device_dispatches,
        };
        ServeOutcome { report, responses }
    }

    /// Admission control: validate, price, and either queue the request
    /// into its coalescing group or shed it with a structured error.
    #[allow(clippy::too_many_arguments)]
    fn admit<T: DeviceScalar>(
        &mut self,
        req: SolveRequest<T>,
        now_s: f64,
        busy_until_s: f64,
        groups: &mut Vec<Group<T>>,
        queued: &mut usize,
        responses: &mut Vec<Response<T>>,
        shed: &mut usize,
        request_errors: &mut usize,
    ) {
        let reject = |req: SolveRequest<T>,
                      err: ServeError,
                      responses: &mut Vec<Response<T>>| {
            responses.push(Response {
                id: req.id,
                client: req.client,
                arrival_s: req.arrival_s,
                completion_s: req.arrival_s,
                result: Err(err),
            });
        };

        // -- structural validation ---------------------------------------
        if req.a.count() == 0 {
            *request_errors += 1;
            reject(
                req,
                ServeError::InvalidRequest("empty problem batch".into()),
                responses,
            );
            return;
        }
        if req.op.needs_rhs() && req.b.is_none() {
            *request_errors += 1;
            let err = ServeError::InvalidRequest(format!(
                "{} requires a right-hand-side batch",
                req.op.name()
            ));
            reject(req, err, responses);
            return;
        }
        let rhs_count = req.b.as_ref().map(|b| b.count());
        if let Some(bc) = rhs_count {
            if bc != req.a.count() {
                *request_errors += 1;
                let err = ServeError::InvalidRequest(format!(
                    "rhs batch has {bc} problems, lhs has {}",
                    req.a.count()
                ));
                reject(req, err, responses);
                return;
            }
        }

        // -- bounded queue -------------------------------------------------
        if *queued >= self.cfg.queue_capacity {
            *shed += 1;
            let err = ServeError::QueueFull {
                queued: *queued,
                capacity: self.cfg.queue_capacity,
            };
            reject(req, err, responses);
            return;
        }

        // -- model-priced backlog budget ----------------------------------
        let key = GroupKey {
            op: req.op,
            m: req.a.rows(),
            n: req.a.cols(),
            rhs_cols: req.b.as_ref().map_or(0, |b| b.cols()),
            math: req.math,
        };
        let queued_est: f64 = groups
            .iter()
            .map(|g| self.service_estimate_s::<T>(&g.key, g.problems))
            .sum();
        let req_est = self.service_estimate_s::<T>(&key, req.a.count());
        let residual_busy = (busy_until_s - now_s).max(0.0);
        let predicted_backlog_s = residual_busy + queued_est + req_est;
        if predicted_backlog_s > self.cfg.backlog_budget_s {
            *shed += 1;
            let err = ServeError::BacklogExceeded {
                predicted_backlog_s,
                budget_s: self.cfg.backlog_budget_s,
            };
            reject(req, err, responses);
            return;
        }

        // -- enqueue into the coalescing group ----------------------------
        *queued += 1;
        let count = req.a.count();
        if self.cfg.coalesce {
            if let Some(g) = groups.iter_mut().find(|g| g.key == key) {
                g.problems += count;
                g.reqs.push(req);
                return;
            }
        }
        groups.push(Group {
            key,
            reqs: vec![req],
            problems: count,
        });
    }
}

/// Smallest batch size at which a device saturates for a shape whose
/// model price at `b` problems is `price(b)`: the point where doubling the
/// batch roughly doubles the price (adding problems no longer rides for
/// free on unused occupancy). A coalesced dispatch flushes once it reaches
/// this size, since beyond it holding requests back buys latency without
/// throughput. `None` when the model has no price for the shape.
fn saturation_batch(price: impl Fn(usize) -> Option<f64>) -> Option<usize> {
    const CAP: usize = 1 << 20;
    let mut b = 1usize;
    let mut t = price(b)?;
    while b < CAP {
        let t2 = price(2 * b)?;
        // Doubling the batch costs ~double: scaling is linear from here
        // on, so the chip is full at `b`.
        if t > 0.0 && t2 >= 1.9 * t {
            return Some(b);
        }
        b *= 2;
        t = t2;
    }
    Some(CAP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regla_core::VerifyMode;
    use regla_gpu_sim::GpuConfig;

    fn one_device_fleet() -> Fleet {
        Fleet::builder()
            .device(GpuConfig::quadro_6000())
            .build()
            .expect("fleet has a device")
    }

    #[test]
    fn saturation_batch_is_finite_and_marks_linear_scaling() {
        let session = regla_core::Session::new();
        let opts = RunOpts::default();
        let price = |b| session.price::<f32>(Op::Lu, 8, 8, 0, b, &opts);
        let b = saturation_batch(price).unwrap();
        assert!((1..1 << 20).contains(&b), "b = {b}");
        // Past saturation, doubling the batch ~doubles the price.
        let (t1, t2) = (price(b).unwrap(), price(2 * b).unwrap());
        assert!(t2 >= 1.9 * t1, "t1 = {t1}, t2 = {t2}");
        assert_eq!(saturation_batch(|_| None), None);
    }

    /// Tentpole (c): the verified tier must price its host-side screens
    /// into the admission estimate, so `VerifyMode::Full` strictly raises
    /// the modeled service time while `Off` stays at the kernel price.
    #[test]
    fn verified_tier_prices_above_the_unverified_tier() {
        let key = GroupKey {
            op: Op::QrSolve,
            m: 12,
            n: 12,
            rhs_cols: 1,
            math: MathMode::default(),
        };
        let plain = ServeEngine::new(one_device_fleet(), ServeConfig::default());
        let verified = ServeEngine::new(
            one_device_fleet(),
            ServeConfig::default().opts(
                RunOpts::builder()
                    .verify(VerifyMode::Full)
                    .build()
                    .expect("valid opts"),
            ),
        );
        let base = plain.service_estimate_s::<f32>(&key, 256);
        let priced = verified.service_estimate_s::<f32>(&key, 256);
        assert!(base > 0.0);
        assert!(
            priced > base,
            "verified estimate {priced:.3e}s must exceed unverified {base:.3e}s"
        );
        let expected = regla_model::verify_seconds(
            regla_model::Algorithm::QrSolve,
            key.m,
            key.n,
            key.rhs_cols,
            256,
            VerifyMode::Full,
        );
        assert!((priced - base - expected).abs() < 1e-12 * priced.max(1.0));
    }
}
