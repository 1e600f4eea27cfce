//! The online materialization optimizer.
//!
//! Deciding what to persist for *future* iterations is NP-hard even under
//! strong simplifying assumptions (knapsack reduction, paper §2.3), the
//! iteration count is unknown, and decisions must be made the moment an
//! operator finishes (buffering candidates for deferred decisions is
//! prohibitive). Helix therefore uses the paper's online cost rule: at
//! iteration `t`, materializing node `i` is worth it when
//!
//! ```text
//! r_i = 2·l_i − (c_i + Σ_{j ∈ A(i)} c_j) < 0
//! ```
//!
//! i.e. one write plus one future load (`2·l_i`) beats recomputing `i`
//! from scratch through all its ancestors — and the output fits the
//! remaining storage budget. `MaterializeAll` (DeepDive) and `Never`
//! (KeystoneML) are provided as the baselines Fig. 2 compares against.
//! The paper prices the online rule against an offline optimum chosen
//! with the whole iteration series known; that optimum is a yardstick
//! for the paper's evaluation, not a policy, and is not implemented here.
//!
//! When the rule wants an output that does not fit, [`Displacement`]
//! decides which stored outputs it may displace: a resident goes only if
//! its benefit density — recompute-chain seconds ÷ stored bytes ×
//! 1/(1 + age) — is below the candidate's. The paper's rule never
//! evicts; without this trade a full store refuses every later candidate,
//! however stale its residents.

use crate::cost::CostModel;
use crate::memo::{chain_secs, MemoTable};
use crate::signature::Signature;
use helix_dataflow::fx::{FxHashMap, FxHashSet};

/// Everything the policy may consult when an operator completes.
#[derive(Debug, Clone, Copy)]
pub struct MaterializationContext {
    /// Estimated cost (seconds) to load this output back in a future
    /// iteration — also the estimated cost to write it now.
    pub load_cost_secs: f64,
    /// Observed compute cost of this node, this iteration (seconds).
    pub compute_cost_secs: f64,
    /// Sum of the compute costs of all ancestors (seconds).
    pub ancestors_compute_secs: f64,
    /// Size of the output in bytes.
    pub size_bytes: u64,
    /// Bytes still available under the storage budget.
    pub remaining_budget_bytes: u64,
    /// Expected number of future loads of this output, from observed
    /// per-signature reuse history (`1.0` — the paper's single-future-
    /// load assumption — when no history exists).
    pub expected_reuse: f64,
}

impl MaterializationContext {
    /// The reduction estimate `r_i` (negative ⇒ materialize),
    /// generalized from the paper's rule by the expected reuse count
    /// `f`: one write plus `f` future loads against `f` saved
    /// recomputations,
    ///
    /// ```text
    /// r_i = (1 + f)·l_i − f·(c_i + Σ_{j ∈ A(i)} c_j)
    /// ```
    ///
    /// At `f = 1` this is exactly the paper's `2·l − (c + anc)`.
    pub fn reduction(&self) -> f64 {
        let f = if self.expected_reuse.is_finite() && self.expected_reuse > 0.0 {
            self.expected_reuse
        } else {
            1.0
        };
        (1.0 + f) * self.load_cost_secs - f * (self.compute_cost_secs + self.ancestors_compute_secs)
    }
}

/// Which materialization policy the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaterializationPolicyKind {
    /// Helix's online heuristic (`r_i < 0` and budget).
    #[default]
    HelixOnline,
    /// Materialize every intermediate that fits (DeepDive).
    All,
    /// Never materialize (KeystoneML).
    Never,
}

impl MaterializationPolicyKind {
    /// Decides whether to materialize the completed node.
    pub fn decide(&self, ctx: &MaterializationContext) -> bool {
        let fits = ctx.size_bytes <= ctx.remaining_budget_bytes;
        match self {
            MaterializationPolicyKind::HelixOnline => fits && helix_wants(ctx),
            MaterializationPolicyKind::All => fits,
            MaterializationPolicyKind::Never => false,
        }
    }

    /// Whether the completed node is worth displacing residents for: only
    /// under `HelixOnline`, only when the rule wants it and it does not
    /// fit. `All` and `Never` refuse what does not fit.
    pub fn displaces(&self, ctx: &MaterializationContext) -> bool {
        *self == MaterializationPolicyKind::HelixOnline
            && ctx.size_bytes > ctx.remaining_budget_bytes
            && helix_wants(ctx)
    }
}

/// The online rule without the budget: `r_i < 0`.
fn helix_wants(ctx: &MaterializationContext) -> bool {
    ctx.reduction() < 0.0
}

/// A stored whole output a displacement may drop, as the store's index
/// lists it: its signature and the bytes evicting it frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resident {
    /// The output's signature.
    pub sig: Signature,
    /// Bytes its eviction returns to the budget.
    pub bytes: u64,
}

/// One displacement decision's inputs: the plan, the memo's history and
/// the store's index. [`Displacement::victims`] is a pure function of
/// them, so a recorded decision replays to the same victims.
#[derive(Debug)]
pub struct Displacement<'a> {
    /// The output the online rule wants stored.
    pub candidate: Signature,
    /// Its expected encoded size.
    pub candidate_bytes: u64,
    /// Bytes the victims must free for it to fit.
    pub needed_bytes: u64,
    /// The current plan's signatures: each is age 0.
    pub plan: &'a [Signature],
    /// Keys that never go: the plan's chunk keys and every key an
    /// in-flight run plans to load.
    pub protected: &'a FxHashSet<u64>,
    /// The store's displaceable outputs.
    pub residents: &'a [Resident],
    /// Runtime history: prices recompute chains and dates last use.
    pub memo: &'a MemoTable,
    /// Name estimates for signatures whose history holds no compute.
    pub cost: &'a CostModel,
    /// This run's compute seconds and parents, consulted only for
    /// signatures the memo has never seen.
    pub fresh: &'a FxHashMap<u64, (f64, Vec<Signature>)>,
}

impl Displacement<'_> {
    /// The residents that may go, least dense first (ties by signature):
    /// every unprotected resident other than the candidate whose benefit
    /// density is below the candidate's. Empty unless together they free
    /// [`needed_bytes`](Self::needed_bytes); the store evicts a prefix,
    /// only until the exact encoded size fits.
    pub fn victims(&self) -> Vec<Signature> {
        let eligible: Vec<Resident> = self
            .residents
            .iter()
            .filter(|r| r.sig != self.candidate && !self.protected.contains(&r.sig.0))
            .copied()
            .collect();
        let mut sigs: Vec<Signature> = eligible.iter().map(|r| r.sig).collect();
        sigs.push(self.candidate);
        let chains = chain_secs(self.memo, self.cost, self.fresh, &sigs);
        let candidate = benefit_density(chains[eligible.len()], self.candidate_bytes, Some(0));
        let mut ranked: Vec<(f64, Resident)> = eligible
            .into_iter()
            .zip(chains)
            .map(|(r, chain)| (benefit_density(chain, r.bytes, self.age(r.sig)), r))
            .filter(|&(density, _)| density < candidate)
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.sig.0.cmp(&b.1.sig.0)));
        let freed: u64 = ranked.iter().map(|(_, r)| r.bytes).sum();
        if freed < self.needed_bytes {
            return Vec::new();
        }
        ranked.into_iter().map(|(_, r)| r.sig).collect()
    }

    /// Runs since `sig` was last computed or loaded: 0 in the current
    /// plan, 1 for the previous run; `None` if the memo never saw it.
    fn age(&self, sig: Signature) -> Option<u64> {
        if self.plan.contains(&sig) {
            return Some(0);
        }
        let last = self.memo.get(sig)?.observations.back()?.run;
        Some((self.memo.current_run() + 1).saturating_sub(last).max(1))
    }
}

/// Recompute-chain seconds saved per stored byte, discounted by age:
/// `chain ÷ bytes × 1/(1 + age)`. An output history never saw is worth
/// nothing.
fn benefit_density(chain_secs: f64, bytes: u64, age: Option<u64>) -> f64 {
    match age {
        Some(age) => chain_secs / bytes.max(1) as f64 / (1 + age) as f64,
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::Observation;

    fn ctx(
        load: f64,
        compute: f64,
        ancestors: f64,
        size: u64,
        remaining: u64,
    ) -> MaterializationContext {
        MaterializationContext {
            load_cost_secs: load,
            compute_cost_secs: compute,
            ancestors_compute_secs: ancestors,
            size_bytes: size,
            remaining_budget_bytes: remaining,
            expected_reuse: 1.0,
        }
    }

    #[test]
    fn expected_reuse_biases_the_rule_and_one_is_the_paper() {
        // Borderline node: 2·1.0 − (0.9 + 0.9) > 0 ⇒ skip at f = 1.
        let mut c = ctx(1.0, 0.9, 0.9, 1024, 1 << 20);
        assert!(!MaterializationPolicyKind::HelixOnline.decide(&c));
        // Observed heavy reuse (f = 4): 5·1.0 − 4·1.8 < 0 ⇒ materialize.
        c.expected_reuse = 4.0;
        assert!(MaterializationPolicyKind::HelixOnline.decide(&c));
        // Degenerate reuse values fall back to the paper's rule.
        c.expected_reuse = f64::NAN;
        assert_eq!(
            c.reduction(),
            2.0 * c.load_cost_secs - (c.compute_cost_secs + c.ancestors_compute_secs)
        );
    }

    #[test]
    fn helix_materializes_expensive_cheap_to_store_nodes() {
        // Costs 10s to recompute through ancestors, loads in 0.1s.
        let c = ctx(0.1, 4.0, 6.0, 1024, 1 << 20);
        assert!(c.reduction() < 0.0);
        assert!(MaterializationPolicyKind::HelixOnline.decide(&c));
    }

    #[test]
    fn helix_skips_cheap_to_recompute_nodes() {
        // Recomputes in 0.2s, loading costs 1s each way.
        let c = ctx(1.0, 0.1, 0.1, 1024, 1 << 20);
        assert!(c.reduction() > 0.0);
        assert!(!MaterializationPolicyKind::HelixOnline.decide(&c));
    }

    #[test]
    fn budget_gates_all_policies_that_write() {
        let c = ctx(0.1, 50.0, 50.0, 2048, 1024);
        assert!(!MaterializationPolicyKind::HelixOnline.decide(&c));
        assert!(!MaterializationPolicyKind::All.decide(&c));
        let c_fits = ctx(0.1, 50.0, 50.0, 512, 1024);
        assert!(MaterializationPolicyKind::All.decide(&c_fits));
    }

    #[test]
    fn never_never_materializes() {
        let c = ctx(0.0, 1e9, 1e9, 0, u64::MAX);
        assert!(!MaterializationPolicyKind::Never.decide(&c));
    }

    /// The candidate every displacement test stores.
    const CANDIDATE: Signature = Signature(100);

    /// A recorded displacement: the plan, the memo and the store index.
    struct Case {
        plan: Vec<Signature>,
        protected: FxHashSet<u64>,
        residents: Vec<Resident>,
        memo: MemoTable,
        cost: CostModel,
        fresh: FxHashMap<u64, (f64, Vec<Signature>)>,
    }

    impl Case {
        /// Residents `sigs` of 1 000 bytes each, computed in 1 s in the
        /// previous run (age 1); the candidate, 1 000 bytes, took 1 s in
        /// this one and the memo has never seen it.
        fn stale(sigs: &[u64]) -> Case {
            let mut memo = MemoTable::new();
            memo.begin_run();
            for &sig in sigs {
                memo.record(Signature(sig), "n", &[], computed(1.0, 1_000));
            }
            Case {
                plan: vec![CANDIDATE],
                protected: FxHashSet::default(),
                residents: sigs
                    .iter()
                    .map(|&sig| Resident {
                        sig: Signature(sig),
                        bytes: 1_000,
                    })
                    .collect(),
                memo,
                cost: CostModel::new(),
                fresh: [(CANDIDATE.0, (1.0, Vec::new()))].into_iter().collect(),
            }
        }

        fn victims(&self, needed_bytes: u64) -> Vec<Signature> {
            Displacement {
                candidate: CANDIDATE,
                candidate_bytes: 1_000,
                needed_bytes,
                plan: &self.plan,
                protected: &self.protected,
                residents: &self.residents,
                memo: &self.memo,
                cost: &self.cost,
                fresh: &self.fresh,
            }
            .victims()
        }
    }

    fn computed(secs: f64, bytes: u64) -> Observation {
        Observation {
            exec_secs: secs,
            output_bytes: bytes,
            loaded: false,
            rows: 0,
            run: 0,
        }
    }

    fn sigs(ids: &[u64]) -> Vec<Signature> {
        ids.iter().map(|&id| Signature(id)).collect()
    }

    #[test]
    fn a_stale_resident_loses_to_an_equal_candidate() {
        let mut case = Case::stale(&[1]);
        assert_eq!(case.victims(500), sigs(&[1]));
        // The same resident in the current plan is age 0: equal density,
        // so it stays.
        case.plan.push(Signature(1));
        assert!(case.victims(500).is_empty());
    }

    #[test]
    fn protected_keys_and_the_candidate_never_go() {
        let mut case = Case::stale(&[1, 2, 3]);
        // The candidate's own (older) entry is listed as a resident too.
        case.residents.push(Resident {
            sig: CANDIDATE,
            bytes: 1_000,
        });
        case.protected.insert(1); // a chunk key of the plan
        case.protected.insert(2); // an in-flight run loads it
        assert_eq!(case.victims(1_000), sigs(&[3]));
    }

    #[test]
    fn nothing_goes_unless_the_victims_make_room() {
        let mut case = Case::stale(&[1, 2, 3]);
        case.protected.insert(2);
        assert!(case.victims(2_001).is_empty());
        assert_eq!(case.victims(2_000), sigs(&[1, 3]));
    }

    #[test]
    fn ties_break_by_signature() {
        let case = Case::stale(&[7, 5, 6]);
        assert_eq!(case.victims(1), sigs(&[5, 6, 7]));
    }

    #[test]
    fn a_recorded_decision_replays_to_the_same_victims() {
        // A chain 1 → 2 → 3 from two runs ago, a costly leaf 4 from the
        // previous run, a key 5 the memo never saw, and a resident 6 of
        // the current plan.
        let mut memo = MemoTable::new();
        memo.begin_run();
        memo.record(Signature(1), "a", &[], computed(0.5, 4_000));
        memo.record(Signature(2), "b", &[Signature(1)], computed(0.5, 4_000));
        memo.record(Signature(3), "c", &[Signature(2)], computed(0.5, 2_000));
        memo.begin_run();
        memo.record(Signature(4), "d", &[], computed(9.0, 2_000));
        memo.record(Signature(6), "e", &[], computed(0.1, 1_000));
        let mut case = Case::stale(&[]);
        case.memo = memo;
        case.plan = vec![CANDIDATE, Signature(6)];
        case.fresh = [(CANDIDATE.0, (0.5, vec![Signature(3)]))]
            .into_iter()
            .collect();
        case.residents = [
            (1, 4_000),
            (2, 4_000),
            (3, 2_000),
            (4, 2_000),
            (5, 500),
            (6, 1_000),
        ]
        .into_iter()
        .map(|(sig, bytes)| Resident {
            sig: Signature(sig),
            bytes,
        })
        .collect();
        let victims = case.victims(3_000);
        // Candidate: (0.5 + 1.5) s / 1 000 B. Key 5 is unknown (density
        // 0), then by density 1 (0.5/4000/3), 2 (1.0/4000/3), 6
        // (0.1/1000/1) and 3 (1.5/2000/3). Key 4 (9/2000/2) outranks the
        // candidate.
        assert_eq!(victims, sigs(&[5, 1, 2, 6, 3]));

        let replayed = Case {
            memo: MemoTable::from_json(&case.memo.to_json()).unwrap(),
            ..case
        };
        assert_eq!(replayed.victims(3_000), victims);
    }
}
