//! Iteration scripts: scripted human-in-the-loop modification sequences.

/// The paper's iteration categories (Fig. 2 coloring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationStage {
    /// Purple: data-pre-processing change (e.g. adding a feature).
    DataPreProcessing,
    /// Orange: ML change (e.g. changing regularization).
    MachineLearning,
    /// Green: evaluation / post-processing change (e.g. changing metrics).
    Evaluation,
}

/// One scripted modification to a workflow's parameters.
pub struct IterationSpec<P> {
    /// What the "user" did, for logs and version summaries.
    pub description: &'static str,
    /// The paper's category for this change.
    pub stage: IterationStage,
    /// Mutation applied to the workflow parameters before re-running.
    pub apply: Box<dyn Fn(&mut P) + Send + Sync>,
}

impl<P> IterationSpec<P> {
    /// Creates a spec.
    pub fn new(
        description: &'static str,
        stage: IterationStage,
        apply: impl Fn(&mut P) + Send + Sync + 'static,
    ) -> Self {
        IterationSpec {
            description,
            stage,
            apply: Box::new(apply),
        }
    }
}

impl<P> std::fmt::Debug for IterationSpec<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterationSpec")
            .field("description", &self.description)
            .field("stage", &self.stage)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_applies_mutation() {
        let spec = IterationSpec::new("bump", IterationStage::MachineLearning, |x: &mut i32| {
            *x += 1;
        });
        let mut v = 1;
        (spec.apply)(&mut v);
        assert_eq!(v, 2);
        assert!(format!("{spec:?}").contains("bump"));
    }
}
