//! Shared costing context threaded through the optimizer phases.
//!
//! Pricing is split in two: [`CostContext::compile`] derives a plan's
//! fetch-independent [`CostSkeleton`] once, and [`CostContext::price`]
//! turns any annotation of it — one skeleton, many fetch vectors in
//! phase 3 — into a cost. [`CostContext::cost`] does both for a plan
//! priced once.

use mdq_cost::estimate::{Annotation, CacheSetting, CostSkeleton, Estimator};
use mdq_cost::metrics::CostMetric;
use mdq_cost::selectivity::SelectivityModel;
use mdq_cost::shared::{discount_materialized, SharedWorkOracle, NOTHING_SHARED};
use mdq_model::schema::Schema;
use mdq_plan::dag::Plan;

/// Bundles everything needed to price a plan: schema, selectivity model,
/// cache setting, the cost metric being minimised — and the
/// [`SharedWorkOracle`] the serving layer answers about work other
/// queries have already materialized (defaults to
/// [`NothingShared`](mdq_cost::shared::NothingShared), which reproduces
/// the paper's standalone costing exactly).
#[derive(Clone, Copy)]
pub struct CostContext<'a> {
    /// Service signatures and domains.
    pub schema: &'a Schema,
    /// Predicate selectivity model.
    pub selectivity: &'a SelectivityModel,
    /// Cache setting assumed by the call estimator.
    pub cache: CacheSetting,
    /// The metric to minimise.
    pub metric: &'a dyn CostMetric,
    /// Already-materialized shared work to discount when pricing.
    pub oracle: &'a dyn SharedWorkOracle,
}

impl<'a> CostContext<'a> {
    /// Creates a context with nothing shared (standalone costing).
    pub fn new(
        schema: &'a Schema,
        selectivity: &'a SelectivityModel,
        cache: CacheSetting,
        metric: &'a dyn CostMetric,
    ) -> Self {
        CostContext {
            schema,
            selectivity,
            cache,
            metric,
            oracle: &NOTHING_SHARED,
        }
    }

    /// Replaces the shared-work oracle (builder style).
    pub fn with_oracle(mut self, oracle: &'a dyn SharedWorkOracle) -> Self {
        self.oracle = oracle;
        self
    }

    fn estimator(&self) -> Estimator<'a> {
        Estimator::new(self.schema, self.selectivity, self.cache)
    }

    /// Annotates a plan under this context's estimator settings.
    pub fn annotate(&self, plan: &Plan) -> Annotation {
        self.estimator().annotate(plan)
    }

    /// Compiles the fetch-independent part of `plan`'s annotation, to
    /// be annotated under many fetch vectors.
    pub fn compile(&self, plan: &Plan) -> CostSkeleton {
        self.estimator().compile(plan)
    }

    /// Annotates and prices a plan, discounting the calls of the
    /// longest invoke prefix the oracle reports materialized.
    pub fn cost(&self, plan: &Plan) -> (f64, Annotation) {
        self.price(plan, self.annotate(plan))
    }

    /// Prices `ann`, an annotation of `plan` under `plan.fetches`:
    /// applies the shared-work discount, then the metric.
    pub fn price(&self, plan: &Plan, mut ann: Annotation) -> (f64, Annotation) {
        discount_materialized(plan, &mut ann, self.oracle);
        (self.metric.cost(plan, &ann, self.schema), ann)
    }
}
