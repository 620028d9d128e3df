//! Cardinality and invocation-count estimation (§3.4, §5.2).
//!
//! For every plan node the estimator derives:
//!
//! * `t_in` — tuples arriving (candidate pairs, for joins);
//! * `t_out` — tuples leaving: `t_in · ξ` for exact services,
//!   `t_in · cs · F` for chunked ones, join size for joins — times the
//!   selectivity of every predicate that first becomes applicable there;
//! * `calls` — *effective* service invocations, which under caching can
//!   be far fewer than `t_in` (Eq. 2): tuples produced contiguously by a
//!   proliferative ancestor arrive in blocks that repeat the same input
//!   values, so the number of distinct-block calls is bounded by the
//!   minimal `t_out` among the pipe nodes carrying each input variable
//!   (the paper's set `N(n)` of minimal contributors).
//!
//! Cache settings (§5.1): *no cache* pays one call per input tuple;
//! *one-call cache* pays per block (Eq. 2); *optimal cache* pays per
//! distinct input combination, additionally capped by abstract-domain
//! cardinalities.

use crate::selectivity::SelectivityModel;
use mdq_model::binding::input_vars;
use mdq_model::query::VarId;
use mdq_model::schema::{Chunking, Schema};
use mdq_plan::dag::{NodeId, NodeKind, Plan};
use std::collections::HashSet;

/// The logical-caching settings of §5.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheSetting {
    /// Every call is repeated.
    NoCache,
    /// The engine recalls the last call (and result) per service,
    /// absorbing immediate re-invocations with identical parameters.
    OneCall,
    /// The engine memoizes every call: one invocation per distinct input.
    Optimal,
}

impl CacheSetting {
    /// All three settings, in the paper's order.
    pub const ALL: [CacheSetting; 3] = [
        CacheSetting::NoCache,
        CacheSetting::OneCall,
        CacheSetting::Optimal,
    ];

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            CacheSetting::NoCache => "no cache",
            CacheSetting::OneCall => "one-call cache",
            CacheSetting::Optimal => "optimal cache",
        }
    }
}

/// Per-node estimates produced by [`Estimator::annotate`]; the `t^in` /
/// `t^out` annotations of Fig. 8.
#[derive(Clone, Debug)]
pub struct Annotation {
    /// Tuples (or candidate pairs) arriving at each node.
    pub t_in: Vec<f64>,
    /// Tuples leaving each node.
    pub t_out: Vec<f64>,
    /// Effective service invocations per node (0 for non-invoke nodes).
    pub calls: Vec<f64>,
    /// The cache setting the estimate was computed under.
    pub cache: CacheSetting,
}

impl Annotation {
    /// Estimated size of the query answer (`t_out` of the Output node).
    pub fn out_size(&self) -> f64 {
        *self.t_out.last().expect("plans always have an output node")
    }

    /// Calls attributed to the invoke node of plan-atom position `pos`.
    pub fn calls_of_atom(&self, plan: &Plan, pos: usize) -> f64 {
        plan.node_of_atom(pos)
            .map(|NodeId(i)| self.calls[i])
            .unwrap_or(0.0)
    }
}

/// The §5.2 estimator. Borrowed context: schema for profiles/domains,
/// selectivity model for predicate σ's.
#[derive(Clone, Copy, Debug)]
pub struct Estimator<'a> {
    /// Service signatures and domain cardinalities.
    pub schema: &'a Schema,
    /// Predicate selectivity defaults.
    pub selectivity: &'a SelectivityModel,
    /// Cache setting assumed for call counting.
    pub cache: CacheSetting,
}

impl<'a> Estimator<'a> {
    /// Creates an estimator.
    pub fn new(schema: &'a Schema, selectivity: &'a SelectivityModel, cache: CacheSetting) -> Self {
        Estimator {
            schema,
            selectivity,
            cache,
        }
    }

    /// Annotates `plan` with `t_in` / `t_out` / `calls` per node under
    /// the plan's own fetch factors.
    pub fn annotate(&self, plan: &Plan) -> Annotation {
        self.compile(plan).annotate(&plan.fetches)
    }

    /// Compiles the fetch-independent part of `plan`'s annotation: per
    /// node, its upstream indices, the selectivity of the predicates
    /// first applicable there, the per-input output factor, the
    /// candidate minimal contributors of each input variable and, for
    /// joins, the divergence node and value-join caps. The result prices
    /// any number of fetch vectors for the same plan structure.
    pub fn compile(&self, plan: &Plan) -> CostSkeleton {
        let n = plan.nodes.len();
        // which predicates have been applied upstream of each node
        let mut applied: Vec<HashSet<usize>> = vec![HashSet::new(); n];
        let mut nodes = Vec::with_capacity(n);

        for i in 0..n {
            let node = &plan.nodes[i];
            // predicates inherited from inputs
            let mut inherited: HashSet<usize> = HashSet::new();
            for inp in &node.inputs {
                inherited.extend(applied[inp.0].iter().copied());
            }
            // predicates newly applicable here: all vars bound, not yet applied
            let new_preds: Vec<usize> = plan
                .query
                .predicates
                .iter()
                .enumerate()
                .filter(|(k, p)| {
                    !inherited.contains(k) && p.vars().iter().all(|v| node.bound_vars.contains(v))
                })
                .map(|(k, _)| k)
                .collect();
            let sigma_new: f64 = new_preds
                .iter()
                .map(|&k| self.selectivity.selectivity(&plan.query.predicates[k]))
                .product();

            let op = match &node.kind {
                NodeKind::Input => SkeletonOp::Input,
                NodeKind::Output => SkeletonOp::Output {
                    up: node.inputs[0].0,
                },
                NodeKind::Invoke { atom } => {
                    let sig = self.schema.service(plan.query.atoms[*atom].service);
                    let per_input = match sig.chunking {
                        Chunking::Bulk => PerInput::Bulk(sig.profile.erspi),
                        Chunking::Chunked { chunk_size } => PerInput::Chunked {
                            chunk_size: chunk_size as f64,
                            pos: plan.position_of(*atom).expect("atom covered by plan"),
                        },
                    };
                    SkeletonOp::Invoke {
                        up: node.inputs[0].0,
                        per_input,
                        calls: self.compile_calls(plan, i, *atom),
                    }
                }
                NodeKind::Join {
                    left, right, on, ..
                } => {
                    // Divergence node: the deepest common dataflow
                    // ancestor. Both branches replicate its tuples, so
                    // only pairs agreeing on them join (provenance
                    // factor 1 / t_out[divergence]). Shared variables
                    // not bound there are genuine value joins, capped by
                    // their domain cardinality.
                    let div = self.divergence(plan, *left, *right);
                    let div_bound = &plan.nodes[div.0].bound_vars;
                    SkeletonOp::Join {
                        left: left.0,
                        right: right.0,
                        div: div.0,
                        value_caps: on
                            .iter()
                            .filter(|v| !div_bound.contains(v))
                            .map(|v| self.domain_cardinality(plan, *v))
                            .collect(),
                    }
                }
            };
            nodes.push(SkeletonNode { sigma_new, op });
            let mut acc = inherited;
            acc.extend(new_preds);
            applied[i] = acc;
        }

        CostSkeleton {
            cache: self.cache,
            nodes,
        }
    }

    /// The fetch-independent part of the call estimate of invoke node
    /// `node_idx` (query atom `atom`).
    fn compile_calls(&self, plan: &Plan, node_idx: usize, atom: usize) -> CallSkeleton {
        if self.cache == CacheSetting::NoCache {
            return CallSkeleton::PerTuple;
        }
        let in_vars = input_vars(&plan.query, self.schema, &plan.choice, atom);
        if in_vars.is_empty() {
            return CallSkeleton::Single;
        }
        let ancestors = self.ancestors(plan, NodeId(node_idx));
        CallSkeleton::Blocked(
            in_vars
                .iter()
                .map(|v| VarContributors {
                    candidates: ancestors
                        .iter()
                        .copied()
                        .filter(|&a| plan.nodes[a].bound_vars.contains(v))
                        .collect(),
                    card: self.domain_cardinality(plan, *v),
                })
                .collect(),
        )
    }

    /// Dataflow ancestors of `id` (transitive inputs, excluding `id`).
    fn ancestors(&self, plan: &Plan, id: NodeId) -> Vec<usize> {
        let mut seen = vec![false; plan.nodes.len()];
        let mut stack: Vec<usize> = plan.nodes[id.0].inputs.iter().map(|n| n.0).collect();
        let mut out = Vec::new();
        while let Some(x) = stack.pop() {
            if seen[x] {
                continue;
            }
            seen[x] = true;
            out.push(x);
            stack.extend(plan.nodes[x].inputs.iter().map(|n| n.0));
        }
        out
    }

    /// Deepest common dataflow ancestor of two nodes (exists because every
    /// plan has the Input node as a common root; "deepest" by node index,
    /// which is a topological order).
    fn divergence(&self, plan: &Plan, a: NodeId, b: NodeId) -> NodeId {
        let aa: HashSet<usize> = self
            .ancestors(plan, a)
            .into_iter()
            .chain(std::iter::once(a.0))
            .collect();
        let bb: HashSet<usize> = self
            .ancestors(plan, b)
            .into_iter()
            .chain(std::iter::once(b.0))
            .collect();
        NodeId(
            aa.intersection(&bb)
                .copied()
                .max()
                .expect("Input is a common ancestor"),
        )
    }

    /// Cardinality of the abstract domain of `v` (∞ when unknown). The
    /// variable's domain is read off its first occurrence in an atom.
    fn domain_cardinality(&self, plan: &Plan, v: VarId) -> f64 {
        for atom in &plan.query.atoms {
            for (i, t) in atom.terms.iter().enumerate() {
                if t.as_var() == Some(v) {
                    let sig = self.schema.service(atom.service);
                    return self
                        .schema
                        .domain_info(sig.domains[i])
                        .cardinality
                        .unwrap_or(f64::INFINITY);
                }
            }
        }
        f64::INFINITY
    }
}

/// The fetch-independent part of a plan's annotation, compiled once by
/// [`Estimator::compile`] and priced against any number of fetch
/// vectors by [`CostSkeleton::annotate`] — phase 3 probes hundreds of
/// vectors per plan structure.
#[derive(Clone, Debug)]
pub struct CostSkeleton {
    cache: CacheSetting,
    nodes: Vec<SkeletonNode>,
}

#[derive(Clone, Debug)]
struct SkeletonNode {
    /// Selectivity product of the predicates first applicable here.
    sigma_new: f64,
    op: SkeletonOp,
}

#[derive(Clone, Debug)]
enum SkeletonOp {
    Input,
    Output {
        up: usize,
    },
    Invoke {
        up: usize,
        per_input: PerInput,
        calls: CallSkeleton,
    },
    Join {
        left: usize,
        right: usize,
        div: usize,
        /// Domain cardinality per value-join variable.
        value_caps: Vec<f64>,
    },
}

/// Tuples an invoke node emits per input tuple, before predicates.
#[derive(Clone, Copy, Debug)]
enum PerInput {
    Bulk(f64),
    /// `chunk_size · F` of the plan-atom position.
    Chunked {
        chunk_size: f64,
        pos: usize,
    },
}

#[derive(Clone, Debug)]
enum CallSkeleton {
    /// No cache: one call per input tuple.
    PerTuple,
    /// Constant-only inputs: a single distinct input combination.
    Single,
    /// Calls bounded by the minimal contributors of each input variable.
    Blocked(Vec<VarContributors>),
}

/// One input variable of an invoke node: the ancestors carrying it (in
/// [`Estimator::ancestors`] order, which breaks `t_out` ties) and its
/// domain cardinality.
#[derive(Clone, Debug)]
struct VarContributors {
    candidates: Vec<usize>,
    card: f64,
}

impl CostSkeleton {
    /// Annotates the compiled plan under `fetches` (one factor per plan
    /// atom position).
    pub fn annotate(&self, fetches: &[u64]) -> Annotation {
        let n = self.nodes.len();
        let mut t_in = vec![0.0f64; n];
        let mut t_out = vec![0.0f64; n];
        let mut calls = vec![0.0f64; n];
        let mut minimal = Vec::new();

        for (i, node) in self.nodes.iter().enumerate() {
            match &node.op {
                SkeletonOp::Input => {
                    // §3.4: the user injects one single input tuple
                    t_in[i] = 1.0;
                    t_out[i] = 1.0;
                }
                SkeletonOp::Output { up } => {
                    t_in[i] = t_out[*up];
                    t_out[i] = t_out[*up] * node.sigma_new;
                }
                SkeletonOp::Invoke {
                    up,
                    per_input,
                    calls: call_skeleton,
                } => {
                    let stream = t_out[*up];
                    t_in[i] = stream;
                    calls[i] = call_skeleton.calls(self.cache, stream, &t_out, &mut minimal);
                    let per_input = match *per_input {
                        PerInput::Bulk(erspi) => erspi,
                        PerInput::Chunked { chunk_size, pos } => chunk_size * fetches[pos] as f64,
                    };
                    t_out[i] = stream * per_input * node.sigma_new;
                }
                SkeletonOp::Join {
                    left,
                    right,
                    div,
                    value_caps,
                } => {
                    let (l, r) = (*left, *right);
                    t_in[i] = t_out[l] * t_out[r];
                    // σ = 1 / t_out[divergence], then 1 / max(V_l, V_r)
                    // per value join, V = min(side t_out, cardinality)
                    let mut sigma_join = 1.0 / t_out[*div].max(1.0);
                    for &card in value_caps {
                        let vl = t_out[l].max(1.0).min(card);
                        let vr = t_out[r].max(1.0).min(card);
                        sigma_join /= vl.max(vr);
                    }
                    t_out[i] = t_in[i] * sigma_join * node.sigma_new;
                }
            }
        }

        Annotation {
            t_in,
            t_out,
            calls,
            cache: self.cache,
        }
    }
}

impl CallSkeleton {
    /// Effective invocations for `stream` input tuples (Eq. 2). N(n),
    /// the set of minimal contributors, is kept in first-found order in
    /// `minimal` (node, product of its variables' cardinalities), so
    /// the float products below do not depend on hashing.
    fn calls(
        &self,
        cache: CacheSetting,
        stream: f64,
        t_out: &[f64],
        minimal: &mut Vec<(usize, f64)>,
    ) -> f64 {
        let vars = match self {
            CallSkeleton::PerTuple => return stream,
            CallSkeleton::Single => return stream.min(1.0),
            CallSkeleton::Blocked(vars) => vars,
        };
        minimal.clear();
        for var in vars {
            // variables with no carrying ancestor cannot occur in
            // admissible plans; treat as unconstrained (no factor)
            let Some(&m) = var
                .candidates
                .iter()
                .min_by(|&&a, &&b| t_out[a].total_cmp(&t_out[b]))
            else {
                continue;
            };
            match minimal.iter_mut().find(|(node, _)| *node == m) {
                Some((_, cap)) => *cap *= var.card,
                None => minimal.push((m, var.card)),
            }
        }
        let block_bound: f64 = minimal.iter().map(|&(m, _)| t_out[m].max(1.0)).product();
        let one_call = stream.min(block_bound);
        if cache == CacheSetting::OneCall {
            return one_call;
        }
        // Optimal: per minimal node, distinct contribution is further
        // capped by the product of its variables' domain cardinalities.
        let mut optimal = 1.0f64;
        for &(m, var_cap) in minimal.iter() {
            optimal *= t_out[m].max(1.0).min(var_cap);
        }
        one_call.min(optimal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{fig6_poset, fig7a_serial_poset, running_example, RunningExample};
    use mdq_model::binding::{permissible_sequences, ApChoice, SupplierMap};
    use mdq_model::examples::{ATOM_FLIGHT, ATOM_HOTEL};
    use mdq_model::query::ConjunctiveQuery;
    use mdq_plan::builder::{build_plan, StrategyRule};
    use mdq_plan::poset::all_topologies;
    use std::sync::Arc;

    fn annotate(plan: &Plan, schema: &Schema, cache: CacheSetting) -> Annotation {
        let sel = SelectivityModel::default();
        Estimator::new(schema, &sel, cache).annotate(plan)
    }

    /// The per-node walk the skeleton replaced, kept as the oracle of
    /// [`skeleton_matches_reference_walk`]: every fetch-independent
    /// quantity is recomputed on every call.
    fn reference_annotate(est: &Estimator<'_>, plan: &Plan) -> Annotation {
        let n = plan.nodes.len();
        let mut t_in = vec![0.0f64; n];
        let mut t_out = vec![0.0f64; n];
        let mut calls = vec![0.0f64; n];
        let mut applied: Vec<HashSet<usize>> = vec![HashSet::new(); n];

        for i in 0..n {
            let node = &plan.nodes[i];
            let mut inherited: HashSet<usize> = HashSet::new();
            for inp in &node.inputs {
                inherited.extend(applied[inp.0].iter().copied());
            }
            let new_preds: Vec<usize> = plan
                .query
                .predicates
                .iter()
                .enumerate()
                .filter(|(k, p)| {
                    !inherited.contains(k) && p.vars().iter().all(|v| node.bound_vars.contains(v))
                })
                .map(|(k, _)| k)
                .collect();
            let sigma_new: f64 = new_preds
                .iter()
                .map(|&k| est.selectivity.selectivity(&plan.query.predicates[k]))
                .product();

            match &node.kind {
                NodeKind::Input => {
                    t_in[i] = 1.0;
                    t_out[i] = 1.0;
                }
                NodeKind::Output => {
                    let up = node.inputs[0].0;
                    t_in[i] = t_out[up];
                    t_out[i] = t_out[up] * sigma_new;
                }
                NodeKind::Invoke { atom } => {
                    let up = node.inputs[0].0;
                    let stream = t_out[up];
                    t_in[i] = stream;
                    calls[i] = reference_calls(est, plan, i, *atom, stream, &t_out);
                    let sig = est.schema.service(plan.query.atoms[*atom].service);
                    let pos = plan.position_of(*atom).expect("atom covered by plan");
                    let per_input = match sig.chunking {
                        Chunking::Bulk => sig.profile.erspi,
                        Chunking::Chunked { chunk_size } => {
                            chunk_size as f64 * plan.fetch_of(pos) as f64
                        }
                    };
                    t_out[i] = stream * per_input * sigma_new;
                }
                NodeKind::Join {
                    left, right, on, ..
                } => {
                    let (l, r) = (left.0, right.0);
                    t_in[i] = t_out[l] * t_out[r];
                    let div = est.divergence(plan, *left, *right);
                    let div_out = t_out[div.0].max(1.0);
                    let div_bound = &plan.nodes[div.0].bound_vars;
                    let mut sigma_join = 1.0 / div_out;
                    for v in on.iter().filter(|v| !div_bound.contains(v)) {
                        let card = est.domain_cardinality(plan, *v);
                        let vl = t_out[l].max(1.0).min(card);
                        let vr = t_out[r].max(1.0).min(card);
                        sigma_join /= vl.max(vr);
                    }
                    t_out[i] = t_in[i] * sigma_join * sigma_new;
                }
            }
            let mut acc = inherited;
            acc.extend(new_preds);
            applied[i] = acc;
        }

        Annotation {
            t_in,
            t_out,
            calls,
            cache: est.cache,
        }
    }

    /// Reference call estimate: N(n) collected in first-found order.
    fn reference_calls(
        est: &Estimator<'_>,
        plan: &Plan,
        node_idx: usize,
        atom: usize,
        stream: f64,
        t_out: &[f64],
    ) -> f64 {
        if est.cache == CacheSetting::NoCache {
            return stream;
        }
        let in_vars = input_vars(&plan.query, est.schema, &plan.choice, atom);
        if in_vars.is_empty() {
            return stream.min(1.0);
        }
        let ancestors = est.ancestors(plan, NodeId(node_idx));
        let mut minimal_nodes: Vec<usize> = Vec::new();
        let mut per_var_min: Vec<(VarId, usize)> = Vec::new();
        for v in &in_vars {
            let best = ancestors
                .iter()
                .filter(|&&a| plan.nodes[a].bound_vars.contains(v))
                .min_by(|&&a, &&b| t_out[a].total_cmp(&t_out[b]));
            if let Some(&m) = best {
                if !minimal_nodes.contains(&m) {
                    minimal_nodes.push(m);
                }
                per_var_min.push((*v, m));
            }
        }
        let block_bound: f64 = minimal_nodes.iter().map(|&m| t_out[m].max(1.0)).product();
        let one_call = stream.min(block_bound);
        if est.cache == CacheSetting::OneCall {
            return one_call;
        }
        let mut optimal = 1.0f64;
        for &m in &minimal_nodes {
            let var_cap: f64 = per_var_min
                .iter()
                .filter(|(_, node)| *node == m)
                .map(|(v, _)| est.domain_cardinality(plan, *v))
                .product();
            optimal *= t_out[m].max(1.0).min(var_cap);
        }
        one_call.min(optimal)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Every complete plan of every permissible access-pattern choice of
    /// the running example (the 19 α1 topologies among them), plus every
    /// buildable prefix plan over a downward-closed atom subset — the
    /// partial plans branch and bound prices as lower bounds.
    fn running_example_plans(schema: &Schema, query: &Arc<ConjunctiveQuery>) -> Vec<Plan> {
        let mut plans = Vec::new();
        for choice in permissible_sequences(query, schema) {
            let suppliers = SupplierMap::build(query, schema, &choice);
            let topologies = all_topologies(query.atoms.len(), &suppliers);
            if choice == ApChoice(vec![0, 0, 0, 0]) {
                assert_eq!(topologies.len(), 19, "Example 4.1: 19 α1 topologies");
            }
            for poset in topologies {
                for mask in 1u32..(1 << poset.len()) {
                    let atoms: Vec<usize> =
                        (0..poset.len()).filter(|&a| mask & (1 << a) != 0).collect();
                    let closed = atoms
                        .iter()
                        .all(|&b| (0..poset.len()).all(|a| !poset.lt(a, b) || atoms.contains(&a)));
                    if !closed {
                        continue;
                    }
                    let sub = poset.restrict(&atoms);
                    if let Ok(plan) = build_plan(
                        Arc::clone(query),
                        schema,
                        choice.clone(),
                        sub,
                        atoms,
                        &StrategyRule::default(),
                    ) {
                        plans.push(plan);
                    }
                }
            }
        }
        plans
    }

    /// The compiled skeleton reproduces the per-node walk bit for bit:
    /// randomised service profiles and domain cardinalities (so the
    /// optimal-cache caps bind), every running-example plan and prefix,
    /// all three cache settings, random fetch vectors up to the caps —
    /// and, through the shared-work discount, every metric's cost with
    /// one of the plan's invoke prefixes materialized.
    #[test]
    fn skeleton_matches_reference_walk() {
        use crate::metrics::all_metrics;
        use crate::shared::discount_materialized;
        use mdq_model::fingerprint::SubplanSignature;
        use mdq_model::rng::Rng;
        use mdq_plan::signature::invoke_prefixes;

        let mut rng = Rng::new(0x5ce1);
        let metrics = all_metrics();
        let sel = SelectivityModel::default();
        let (mut compared, mut discounted) = (0usize, 0usize);
        for case in 0..4 {
            let RunningExample { mut schema, query } = running_example();
            // log-uniform erspi, so divergence nodes emit < 1 tuple often
            for (name, (lo, hi)) in [("conf", (0.2f64, 30.0f64)), ("weather", (0.02, 1.5))] {
                let id = schema.service_by_name(name).expect("service");
                schema.service_mut(id).profile.erspi = rng.range_f64(lo.ln(), hi.ln()).exp();
            }
            for (name, cs) in [("flight", (5, 30)), ("hotel", (2, 10))] {
                let id = schema.service_by_name(name).expect("service");
                schema.service_mut(id).chunking = Chunking::Chunked {
                    chunk_size: rng.range_u64(cs.0, cs.1) as u32,
                };
                if rng.bool(0.3) {
                    schema.service_mut(id).profile.decay = Some(rng.range_u64(5, 200));
                }
            }
            let domains: Vec<_> = schema.domains().map(|(id, _)| id).collect();
            for id in domains {
                if rng.bool(0.5) {
                    schema.set_domain_cardinality(id, rng.range_f64(1.0, 40.0).floor());
                }
            }
            let query = Arc::new(query);
            for mut plan in running_example_plans(&schema, &query) {
                let caps: Vec<u64> = plan
                    .atoms
                    .iter()
                    .map(|&a| {
                        let sig = schema.service(plan.query.atoms[a].service);
                        if sig.chunking.is_chunked() {
                            sig.max_fetches_from_decay().unwrap_or(64).min(64)
                        } else {
                            1
                        }
                    })
                    .collect();
                for cache in CacheSetting::ALL {
                    let est = Estimator::new(&schema, &sel, cache);
                    let skeleton = est.compile(&plan);
                    for _ in 0..2 {
                        for (f, &cap) in plan.fetches.iter_mut().zip(&caps) {
                            *f = rng.range_u64(1, cap + 1);
                        }
                        let want = reference_annotate(&est, &plan);
                        let got = skeleton.annotate(&plan.fetches);
                        let ctx = format!(
                            "case {case} {cache:?} {} {:?}",
                            plan.summary(&schema),
                            plan.fetches
                        );
                        assert_eq!(bits(&got.t_in), bits(&want.t_in), "t_in: {ctx}");
                        assert_eq!(bits(&got.t_out), bits(&want.t_out), "t_out: {ctx}");
                        assert_eq!(bits(&got.calls), bits(&want.calls), "calls: {ctx}");
                        assert_eq!(got.cache, want.cache);
                        compared += 1;

                        let prefixes = invoke_prefixes(&plan);
                        let Some(pick) = rng.choose(&prefixes) else {
                            continue;
                        };
                        let oracle: HashSet<SubplanSignature> =
                            [pick.signature].into_iter().collect();
                        let (mut got, mut want) = (got, want);
                        let n_got = discount_materialized(&plan, &mut got, &oracle);
                        let n_want = discount_materialized(&plan, &mut want, &oracle);
                        assert_eq!((n_got, n_want), (pick.len, pick.len), "{ctx}");
                        for metric in &metrics {
                            assert_eq!(
                                metric.cost(&plan, &got, &schema).to_bits(),
                                metric.cost(&plan, &want, &schema).to_bits(),
                                "{}: {ctx}",
                                metric.name()
                            );
                        }
                        discounted += 1;
                    }
                }
            }
        }
        assert!(
            compared > 5000 && discounted > 2000,
            "{compared} / {discounted}"
        );
    }

    /// Fig. 8: the fully instantiated physical plan. With F_flight = 3 and
    /// F_hotel = 4 the annotation must read t_out(conf) = 20,
    /// t_out(weather) = 1, t_out(flight) = 75, t_out(hotel) = 20,
    /// t_in(MS) = 1500, t_out(MS) = 15.
    #[test]
    fn fig8_annotation_values() {
        let RunningExample { schema, query } = running_example();
        let query = Arc::new(query);
        let mut plan = build_plan(
            Arc::clone(&query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            fig6_poset(),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        plan.set_fetch(ATOM_FLIGHT, 3);
        plan.set_fetch(ATOM_HOTEL, 4);
        let ann = annotate(&plan, &schema, CacheSetting::NoCache);

        let node_out = |name: &str| -> f64 {
            let idx = plan
                .nodes
                .iter()
                .position(|n| match n.kind {
                    NodeKind::Invoke { atom } => {
                        schema.service(plan.query.atoms[atom].service).name.as_ref() == name
                    }
                    _ => false,
                })
                .unwrap_or_else(|| panic!("node {name} missing"));
            ann.t_out[idx]
        };
        assert!((node_out("conf") - 20.0).abs() < 1e-9);
        assert!((node_out("weather") - 1.0).abs() < 1e-9);
        assert!((node_out("flight") - 75.0).abs() < 1e-9);
        assert!((node_out("hotel") - 20.0).abs() < 1e-9);
        let join_idx = plan
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Join { .. }))
            .expect("join");
        assert!(
            (ann.t_in[join_idx] - 1500.0).abs() < 1e-9,
            "t_in = {}",
            ann.t_in[join_idx]
        );
        assert!(
            (ann.t_out[join_idx] - 15.0).abs() < 1e-9,
            "t_out = {}",
            ann.t_out[join_idx]
        );
        assert!(ann.out_size() >= 10.0, "k = 10 answers reachable");
    }

    /// Example 5.1's serial plan: t_in(weather) = ξ_conf = 20 and
    /// t_in(flight) = t_in(hotel) = ξ_conf · ξ_weather = 1 under the
    /// one-call (block) estimate.
    #[test]
    fn example_51_serial_call_estimates() {
        let RunningExample { schema, query } = running_example();
        let query = Arc::new(query);
        let plan = build_plan(
            Arc::clone(&query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            fig7a_serial_poset(),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        let ann = annotate(&plan, &schema, CacheSetting::OneCall);
        let calls = |pos: usize| ann.calls_of_atom(&plan, pos);
        assert!((calls(mdq_model::examples::ATOM_CONF) - 1.0).abs() < 1e-9);
        assert!((calls(mdq_model::examples::ATOM_WEATHER) - 20.0).abs() < 1e-9);
        assert!(
            (calls(ATOM_FLIGHT) - 1.0).abs() < 1e-9,
            "flight blocks by weather output"
        );
        assert!(
            (calls(ATOM_HOTEL) - 1.0).abs() < 1e-9,
            "hotel blocks by weather output"
        );
    }

    #[test]
    fn no_cache_pays_per_stream_tuple() {
        let RunningExample { schema, query } = running_example();
        let query = Arc::new(query);
        let plan = build_plan(
            Arc::clone(&query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            fig7a_serial_poset(),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        let ann = annotate(&plan, &schema, CacheSetting::NoCache);
        // hotel receives flight's whole stream: 1 block · cs 25 · F 1 = 25
        assert!((ann.calls_of_atom(&plan, ATOM_HOTEL) - 25.0).abs() < 1e-9);
        let one = annotate(&plan, &schema, CacheSetting::OneCall);
        let opt = annotate(&plan, &schema, CacheSetting::Optimal);
        for i in 0..plan.nodes.len() {
            assert!(one.calls[i] <= ann.calls[i] + 1e-12, "one-call ≤ no-cache");
            assert!(opt.calls[i] <= one.calls[i] + 1e-12, "optimal ≤ one-call");
        }
    }

    #[test]
    fn optimal_cache_caps_by_domain_cardinality() {
        let RunningExample { mut schema, query } = running_example();
        // pretend the city domain has only 3 distinct values
        let city = schema.domain_by_name("City").expect("City domain");
        schema.set_domain_cardinality(city, 3.0);
        let query = Arc::new(query);
        let plan = build_plan(
            Arc::clone(&query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            fig7a_serial_poset(),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        let opt = annotate(&plan, &schema, CacheSetting::Optimal);
        // weather's inputs are City and Date, both minimal at the conf
        // node: cap = card(City)=3 × card(Date)=365 does not bind below
        // t_out(conf)=20 here, so only the generic bound applies
        let w = opt.calls_of_atom(&plan, mdq_model::examples::ATOM_WEATHER);
        assert!(w <= 20.0 + 1e-9);
        // shrink Date too: now the 3·2 = 6 cap binds
        let date = schema.domain_by_name("Date").expect("Date domain");
        schema.set_domain_cardinality(date, 2.0);
        let opt2 = annotate(&plan, &schema, CacheSetting::Optimal);
        let w2 = opt2.calls_of_atom(&plan, mdq_model::examples::ATOM_WEATHER);
        assert!(w2 <= 6.0 + 1e-9, "city·date cap: {w2}");
    }

    #[test]
    fn join_value_selectivity_without_provenance() {
        // Two independent services both output X; joining them is a value
        // join with σ = 1 / max(V_l, V_r).
        use mdq_model::parser::parse_query;
        use mdq_model::schema::{ServiceBuilder, ServiceProfile};
        let mut s = Schema::new();
        s.domain_with("DX", mdq_model::value::DomainKind::Int, Some(10.0));
        ServiceBuilder::new(&mut s, "a")
            .attr("X", "DX")
            .pattern("o")
            .profile(ServiceProfile::new(30.0, 1.0))
            .register()
            .expect("a");
        ServiceBuilder::new(&mut s, "b")
            .attr("X", "DX")
            .pattern("o")
            .profile(ServiceProfile::new(5.0, 1.0))
            .register()
            .expect("b");
        let q = parse_query("q(X) :- a(X), b(X).", &s).expect("parses");
        let q = Arc::new(q);
        let poset = mdq_plan::poset::Poset::antichain(2);
        let plan = build_plan(
            q,
            &s,
            ApChoice(vec![0, 0]),
            poset,
            vec![0, 1],
            &StrategyRule::default(),
        )
        .expect("builds");
        let ann = annotate(&plan, &s, CacheSetting::NoCache);
        // V_a = min(30, 10) = 10, V_b = min(5, 10) = 5 → σ = 1/10
        // t_out = 30·5/10 = 15
        assert!((ann.out_size() - 15.0).abs() < 1e-9, "{}", ann.out_size());
    }

    /// Three distinct minimal contributors: `d(X, Y, Z, V)` takes one
    /// input from each of the parallel searches `a`, `b`, `c`, while `e`
    /// replicates the joined stream, so the block bound — a product of
    /// three arbitrary floats — sets the call count. It must be
    /// multiplied in first-found (input-variable) order, not in a
    /// hash set's per-instance order, or the last bit varies between
    /// runs; skeleton and reference agree bit for bit either way.
    #[test]
    fn minimal_contributors_multiply_in_first_found_order() {
        use mdq_model::parser::parse_query;
        use mdq_model::rng::Rng;
        use mdq_model::schema::{ServiceBuilder, ServiceProfile};
        let mut rng = Rng::new(0xf1f0);
        let (mut compared, mut order_sensitive) = (0, 0);
        for case in 0..200 {
            let mut s = Schema::new();
            let mut erspi = Vec::new();
            for (name, attr) in [("a", "X"), ("b", "Y"), ("c", "Z"), ("e", "W")] {
                let e = rng.range_f64(1.5, 40.0);
                erspi.push(e);
                ServiceBuilder::new(&mut s, name)
                    .attr(attr, &format!("D{attr}"))
                    .pattern("o")
                    .profile(ServiceProfile::new(e, 1.0))
                    .register()
                    .expect("registers");
            }
            ServiceBuilder::new(&mut s, "d")
                .attr("X", "DX")
                .attr("Y", "DY")
                .attr("Z", "DZ")
                .attr("V", "DV")
                .pattern("iiio")
                .profile(ServiceProfile::new(1.0, 1.0))
                .register()
                .expect("registers");
            let q =
                parse_query("q(V) :- a(X), b(Y), c(Z), e(W), d(X, Y, Z, V).", &s).expect("parses");
            let poset = mdq_plan::poset::Poset::from_pairs(5, &[(0, 4), (1, 4), (2, 4), (3, 4)])
                .expect("acyclic");
            let plan = build_plan(
                Arc::new(q),
                &s,
                ApChoice(vec![0; 5]),
                poset,
                (0..5).collect(),
                &StrategyRule::default(),
            )
            .expect("builds");
            let sel = SelectivityModel::default();
            for cache in [CacheSetting::OneCall, CacheSetting::Optimal] {
                let est = Estimator::new(&s, &sel, cache);
                let got = est.annotate(&plan);
                let want = reference_annotate(&est, &plan);
                assert_eq!(bits(&got.calls), bits(&want.calls), "case {case} {cache:?}");
                let first_found = erspi[..3].iter().fold(1.0, |acc: f64, &t| acc * t);
                let reversed = erspi[..3].iter().rev().fold(1.0, |acc: f64, &t| acc * t);
                assert_eq!(
                    got.calls_of_atom(&plan, 4).to_bits(),
                    first_found.to_bits(),
                    "case {case} {cache:?}: calls = t_out(a)·t_out(b)·t_out(c)"
                );
                compared += 1;
                order_sensitive += usize::from(first_found != reversed);
            }
        }
        assert!(
            order_sensitive > 10,
            "{order_sensitive} of {compared} cases tell the product orders apart"
        );
    }
}
