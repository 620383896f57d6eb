//! Configuration of the serving index: [`BuildConfig`].

/// What a bulk build does with an invalid input point (NaN/∞ coordinate,
/// outside the data space, or an exact duplicate of an earlier point).
///
/// Dynamic [`crate::NnCellIndex::insert`] always rejects — it must return an
/// id, so there is nothing sensible to "skip" to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InputPolicy {
    /// Fail the build with the typed [`crate::BuildError`].
    #[default]
    Reject,
    /// Drop the offending point, count it in
    /// [`crate::BuildStats::skipped_points`], and index the rest. Ids are
    /// assigned to the *surviving* points in input order.
    Skip,
}

/// Configuration for [`crate::NnCellIndex::build`]: what the serving index
/// itself reads. The point tree uses fixed 4 KB pages.
///
/// Construct with [`BuildConfig::builder`]:
///
/// ```
/// use nncell_core::{BuildConfig, InputPolicy};
/// let cfg = BuildConfig::builder()
///     .input_policy(InputPolicy::Skip)
///     .build();
/// assert_eq!(cfg.input_policy, InputPolicy::Skip);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BuildConfig {
    /// What a bulk build does with invalid input points.
    pub input_policy: InputPolicy,
}

impl BuildConfig {
    /// Starts a builder with the documented defaults (reject invalid
    /// input).
    pub fn builder() -> BuildConfigBuilder {
        BuildConfigBuilder {
            cfg: BuildConfig::default(),
        }
    }
}

/// Chainable constructor for [`BuildConfig`], obtained from
/// [`BuildConfig::builder`].
#[derive(Clone, Debug, Default)]
pub struct BuildConfigBuilder {
    cfg: BuildConfig,
}

impl BuildConfigBuilder {
    /// Sets the invalid-input policy for bulk builds.
    pub fn input_policy(mut self, policy: InputPolicy) -> Self {
        self.cfg.input_policy = policy;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> BuildConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let b = BuildConfig::builder()
            .input_policy(InputPolicy::Skip)
            .build();
        assert_eq!(b.input_policy, InputPolicy::Skip);
    }

    #[test]
    fn builder_defaults() {
        let b = BuildConfig::builder().build();
        assert_eq!(b.input_policy, InputPolicy::Reject);
    }
}
