//! Per-problem outcome reporting and bounded fault recovery.
//!
//! Batched runs never fail wholesale: each problem gets a
//! [`ProblemStatus`] verdict, reported uniformly by the per-thread,
//! per-block and tiled paths (and by the `regla-cpu` baseline, so
//! verdicts can be compared across backends). When the simulator's fault
//! campaign corrupts a block, the [`RecoveryPolicy`] bounds what the API
//! does about it: retry the failed subset on the device, then degrade to
//! the host baseline — never loop, never panic.

/// Which verification screen flagged a problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyScreen {
    /// The ABFT checksum relation of the factorization (e.g. `L(Ue)=Ae`
    /// for LU, `Q(Re)=Ae` for QR) broke tolerance.
    Checksum,
    /// The solve-path residual `‖A·x̂ − b‖ / (‖A‖·‖x̂‖ + ‖b‖)` broke
    /// tolerance.
    Residual,
}

/// Outcome of one problem in a batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProblemStatus {
    /// Factorization/solve completed.
    Ok,
    /// A zero (LU/GJ) or non-positive (Cholesky) pivot at `col`; the
    /// problem is singular / not positive definite under the paper's
    /// no-pivoting algorithms (the `*notsolved` flag, with the column).
    ZeroPivot { col: usize },
    /// The result contains NaN or infinity.
    NonFinite,
    /// The simulated hardware reported a fault (bit flip or block abort)
    /// in the block that computed this problem; the result is untrusted
    /// even if it looks plausible.
    FaultDetected,
    /// The result is finite but failed an algorithm-based verification
    /// screen ([`crate::verify`]): silent corruption the hardware did not
    /// report. `norm` is the normalized screen value that broke
    /// tolerance. Not settled, so the usual retry/fallback recovery
    /// re-runs the problem.
    VerifyFailed { screen: VerifyScreen, norm: f64 },
}

// `norm` is invariantly finite (a screen that produced NaN reports the
// problem as NonFinite instead), so equality is reflexive.
impl Eq for ProblemStatus {}

impl ProblemStatus {
    /// Whether the result is numerically trustworthy. `ZeroPivot` counts
    /// as a *reported* outcome (the algorithm did its job of detecting
    /// the singularity), but the factors are not usable.
    pub fn is_ok(self) -> bool {
        matches!(self, ProblemStatus::Ok)
    }

    /// Whether the run produced a *trustworthy verdict*: either a good
    /// result or a correctly-diagnosed singular input. Fault-tainted and
    /// non-finite results are not settled.
    pub fn is_settled(self) -> bool {
        matches!(self, ProblemStatus::Ok | ProblemStatus::ZeroPivot { .. })
    }
}

/// Bounded recovery applied when problems come back fault-tainted or
/// non-finite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Device retries for the failed subset (with fault injection off).
    pub retries: u32,
    /// After retries are exhausted, recompute the still-failed problems
    /// with the host baseline.
    pub cpu_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            retries: 1,
            cpu_fallback: true,
        }
    }
}

impl RecoveryPolicy {
    /// No retries, no fallback: report raw statuses.
    pub fn off() -> Self {
        RecoveryPolicy {
            retries: 0,
            cpu_fallback: false,
        }
    }
}

/// Declares [`RecoveryStats`] and derives [`RecoveryStats::merge`] and
/// [`RecoveryStats::counters`] from the one field list, so a counter is
/// named once.
macro_rules! recovery_stats {
    ($(#[$meta:meta])* pub struct $name:ident { $($(#[$doc:meta])* $field:ident,)* }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $name {
            /// Add every counter of `other` into `self`.
            pub fn merge(&mut self, other: &$name) {
                $(self.$field += other.$field;)*
            }

            /// Every counter as `(field name, value)`, in declaration order.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field)),*]
            }
        }
    };
}

recovery_stats! {
    /// What the recovery layer did: for one batched run, or summed over
    /// many (a [`crate::Session`]'s or [`crate::Fleet`]'s running totals).
    ///
    /// The first seven fields are per-problem events from the
    /// single-device verify/retry/fallback policy; the rest are
    /// device-level events recorded by a [`crate::fleet::Fleet`] (zero on
    /// plain `Session` runs).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct RecoveryStats {
        /// Problems whose block the simulator reported a fault in.
        faults_detected,
        /// Problems flagged `VerifyFailed` by a checksum/residual screen
        /// before recovery ran (silent corruption detected by
        /// verification, not by the hardware).
        verify_failures,
        /// Verify-flagged problems that ended settled after recovery.
        verify_recovered,
        /// Problems re-run on the device (summed over retry rounds).
        retried,
        /// Problems recomputed by the host baseline.
        fell_back,
        /// Problems that ended settled (Ok or ZeroPivot) after recovery.
        recovered,
        /// Problems still fault-tainted or non-finite after the policy was
        /// exhausted (only possible with a truncated policy).
        unrecovered,
        /// Shards re-dispatched to another device after theirs failed.
        device_failovers,
        /// Shards executed by a device other than their planned owner
        /// because the owner was a straggler (work stealing).
        shards_stolen,
        /// Launches that blew their model-derived deadline budget.
        deadline_misses,
        /// Times a device circuit breaker tripped open.
        breaker_trips,
        /// Problems computed by the CPU degraded mode because no device
        /// could take them.
        cpu_degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_predicates() {
        assert!(ProblemStatus::Ok.is_ok());
        assert!(ProblemStatus::Ok.is_settled());
        assert!(!ProblemStatus::ZeroPivot { col: 2 }.is_ok());
        assert!(ProblemStatus::ZeroPivot { col: 2 }.is_settled());
        assert!(!ProblemStatus::NonFinite.is_settled());
        assert!(!ProblemStatus::FaultDetected.is_settled());
        let vf = ProblemStatus::VerifyFailed {
            screen: VerifyScreen::Checksum,
            norm: 1e-2,
        };
        assert!(!vf.is_ok());
        assert!(!vf.is_settled(), "verify failures must reach recovery");
        assert_eq!(vf, vf, "Eq must be reflexive for finite norms");
    }

    #[test]
    fn default_policy_is_bounded() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.retries, 1);
        assert!(p.cpu_fallback);
        let off = RecoveryPolicy::off();
        assert_eq!(off.retries, 0);
        assert!(!off.cpu_fallback);
    }

    #[test]
    fn merge_doubles_every_counter_and_names_follow_the_fields() {
        let mut a = RecoveryStats {
            faults_detected: 1,
            verify_failures: 2,
            verify_recovered: 3,
            retried: 4,
            fell_back: 5,
            recovered: 6,
            unrecovered: 7,
            device_failovers: 8,
            shards_stolen: 9,
            deadline_misses: 10,
            breaker_trips: 11,
            cpu_degraded: 12,
        };
        let before = a.counters();
        a.merge(&a.clone());
        let after = a.counters();
        assert_eq!(after.len(), 12);
        for ((name, v), (n0, v0)) in after.iter().zip(&before) {
            assert_eq!(name, n0);
            assert_eq!(*v, 2 * v0, "{name}");
        }
        // The listing names the fields in declaration order, exactly as
        // the derived Debug rendering (which the golden file hashes) does.
        let listed: Vec<String> = after.iter().map(|(n, v)| format!("{n}: {v}")).collect();
        assert_eq!(format!("{a:?}"), format!("RecoveryStats {{ {} }}", listed.join(", ")));
    }
}
