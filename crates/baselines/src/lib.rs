//! Baseline systems Helix is compared against in Figure 2, expressed as
//! policy configurations of the same engine/substrate.
//!
//! Running every system on one substrate isolates the variable the paper
//! studies — the cross-iteration reuse/materialization policy — so
//! relative runtimes are attributable to policy, not implementation
//! accidents (see DESIGN.md substitutions):
//!
//! * **KeystoneML-sim** — optimizes one-shot execution (its CSE and
//!   dead-code elimination correspond to our slicing, which stays on) but
//!   never materializes across iterations: every iteration recomputes the
//!   full workflow. "For a never-materialize system such as KeystoneML,
//!   the rerun time is constantly large regardless of what has been
//!   changed."
//! * **DeepDive-sim** — materializes *all* feature-extraction
//!   intermediates and greedily reuses whatever is still valid; its ML and
//!   evaluation components are not user-configurable (§2.4 — DeepDive has
//!   "missing data for iteration > 2" in Fig. 2(b)). Here it runs every
//!   iteration, as the materialize-all comparator.
//! * **Helix-unopt** — the demo's §3 comparator: the same DSL and engine
//!   with every cross-iteration optimization off *and* program slicing
//!   disabled.

#![warn(missing_docs)]

use helix_core::materialize::MaterializationPolicyKind;
use helix_core::recompute::RecomputationPolicy;
use helix_core::{Engine, EngineConfig, Result};
use std::path::Path;

/// Which system to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Full Helix: optimal recomputation + online materialization.
    Helix,
    /// Helix with all cross-iteration optimization and slicing disabled.
    HelixUnopt,
    /// DeepDive-style: materialize everything, reuse greedily.
    DeepDiveSim,
    /// KeystoneML-style: never materialize, recompute everything.
    KeystoneSim,
}

impl SystemKind {
    /// All systems, in the order Fig. 2 plots them.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::Helix,
        SystemKind::DeepDiveSim,
        SystemKind::KeystoneSim,
        SystemKind::HelixUnopt,
    ];

    /// Display label used in benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Helix => "HELIX",
            SystemKind::HelixUnopt => "HELIX-unopt",
            SystemKind::DeepDiveSim => "DeepDive-sim",
            SystemKind::KeystoneSim => "KeystoneML-sim",
        }
    }

    /// The engine configuration realizing this system's policies.
    pub fn engine_config(&self, store_dir: &Path) -> EngineConfig {
        let base = EngineConfig::helix(store_dir);
        match self {
            SystemKind::Helix => base,
            SystemKind::HelixUnopt => EngineConfig {
                recomputation: RecomputationPolicy::ComputeAll,
                materialization: MaterializationPolicyKind::Never,
                enable_slicing: false,
                ..base
            },
            SystemKind::DeepDiveSim => EngineConfig {
                recomputation: RecomputationPolicy::LoadAllAvailable,
                materialization: MaterializationPolicyKind::All,
                ..base
            },
            SystemKind::KeystoneSim => EngineConfig {
                recomputation: RecomputationPolicy::ComputeAll,
                materialization: MaterializationPolicyKind::Never,
                ..base
            },
        }
    }

    /// Builds an engine for this system rooted at `store_dir`.
    pub fn build_engine(&self, store_dir: &Path) -> Result<Engine> {
        Engine::new(self.engine_config(store_dir))
    }

    /// Builds a shared (`Arc`-wrapped) engine for this system — the form
    /// sessions take ([`helix_core::session::Session::new`]).
    pub fn build_shared(&self, store_dir: &Path) -> Result<std::sync::Arc<Engine>> {
        Ok(std::sync::Arc::new(self.build_engine(store_dir)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_workloads::census::{census_workflow, generate_census, CensusDataSpec, CensusParams};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-baseline-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn labels_name_each_system() {
        assert_eq!(SystemKind::Helix.label(), "HELIX");
        assert_eq!(SystemKind::DeepDiveSim.label(), "DeepDive-sim");
    }

    #[test]
    fn configs_differ_in_the_right_dimensions() {
        let dir = tmpdir("cfg");
        let helix = SystemKind::Helix.engine_config(&dir);
        assert_eq!(helix.recomputation, RecomputationPolicy::Optimal);
        assert_eq!(
            helix.materialization,
            MaterializationPolicyKind::HelixOnline
        );
        assert!(helix.enable_slicing);

        let dd = SystemKind::DeepDiveSim.engine_config(&dir);
        assert_eq!(dd.materialization, MaterializationPolicyKind::All);

        let ks = SystemKind::KeystoneSim.engine_config(&dir);
        assert_eq!(ks.materialization, MaterializationPolicyKind::Never);
        assert!(ks.enable_slicing);

        let unopt = SystemKind::HelixUnopt.engine_config(&dir);
        assert!(!unopt.enable_slicing);
    }

    /// All four systems produce identical metrics on identical workflows —
    /// the reuse policies must never change results.
    #[test]
    fn all_systems_agree_on_results() {
        let dir = tmpdir("agree");
        generate_census(
            &dir,
            &CensusDataSpec {
                train_rows: 300,
                test_rows: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let mut params = CensusParams::initial(&dir);
        let mut reference: Option<Vec<(String, f64)>> = None;
        for (k, system) in SystemKind::ALL.iter().enumerate() {
            let engine = system.build_engine(&dir.join(format!("store{k}"))).unwrap();
            // Two iterations: initial + an ML change.
            let r1 = engine.run(&census_workflow(&params).unwrap()).unwrap();
            params.reg_param = 0.02;
            let r2 = engine.run(&census_workflow(&params).unwrap()).unwrap();
            params.reg_param = 0.1;
            let combined: Vec<(String, f64)> = r1
                .metrics
                .iter()
                .chain(r2.metrics.iter())
                .cloned()
                .collect();
            match &reference {
                None => reference = Some(combined),
                Some(expected) => {
                    assert_eq!(&combined, expected, "{} diverged", system.label())
                }
            }
        }
    }

    /// On an unchanged rerun Helix loads, KeystoneML-sim recomputes.
    #[test]
    fn reuse_behaviour_differs() {
        let dir = tmpdir("reuse");
        generate_census(
            &dir,
            &CensusDataSpec {
                train_rows: 300,
                test_rows: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let params = CensusParams::initial(&dir);
        let w = census_workflow(&params).unwrap();

        let helix = SystemKind::Helix.build_engine(&dir.join("s-h")).unwrap();
        helix.run(&w).unwrap();
        let h2 = helix.run(&w).unwrap();
        assert!(h2.loaded() > 0);

        let keystone = SystemKind::KeystoneSim
            .build_engine(&dir.join("s-k"))
            .unwrap();
        keystone.run(&w).unwrap();
        let k2 = keystone.run(&w).unwrap();
        assert_eq!(k2.loaded(), 0);
        assert!(k2.computed() > h2.computed());
    }

    /// Unoptimized Helix executes even unwired extractors (no slicing).
    #[test]
    fn unopt_runs_dead_operators() {
        let dir = tmpdir("unopt");
        generate_census(
            &dir,
            &CensusDataSpec {
                train_rows: 200,
                test_rows: 50,
                ..Default::default()
            },
        )
        .unwrap();
        let params = CensusParams::initial(&dir);
        let w = census_workflow(&params).unwrap();
        let unopt = SystemKind::HelixUnopt
            .build_engine(&dir.join("s-u"))
            .unwrap();
        let report = unopt.run(&w).unwrap();
        let race = report.nodes.iter().find(|n| n.name == "race").unwrap();
        assert_eq!(
            race.state,
            helix_core::NodeState::Compute,
            "no slicing in unopt"
        );
        let helix = SystemKind::Helix.build_engine(&dir.join("s-h2")).unwrap();
        let hreport = helix.run(&w).unwrap();
        let hrace = hreport.nodes.iter().find(|n| n.name == "race").unwrap();
        assert_eq!(hrace.state, helix_core::NodeState::Prune);
    }
}
