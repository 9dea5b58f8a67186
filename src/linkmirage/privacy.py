"""Link-privacy metrics: anti-inference posterior, indistinguishability
entropy, and anti-aggregation distance.

The worst-case adversary knows the whole original sequence except the
queried link and observes every perturbed snapshot. The exact likelihood of
an observed perturbed sequence under walk-based perturbation is intractable,
so the posterior uses a feature-likelihood surrogate: the likelihood of a
hypothesis is the empirical frequency, over fresh re-perturbations of that
hypothesis world, of reproducing the observed local neighborhood of the
queried pair (edge presence plus the perturbed degree pair, per timestamp),
with add-one smoothing. On small graphs this is validated against exhaustive
enumeration.

Re-perturbations are keyed: one raw draw from the caller's stream gives a
root key, hashed with each step t into that step's root, and they run in the
keyed blocks of ``perturb._sample_blocks``, so blocks of any size draw the
same samples. Both mechanisms re-perturb through its fold of
``perturb._draws``, which makes the LinkMirage release, over one layout per
plan of the world: LinkMirage's ``_plan_chain``, or the static mechanism's
``_static_plans``, which hold each snapshot as one changed community. A
re-perturbation builds only the step-draw entries the features can read,
and of each only the k-hop ball of u and v (``perturb._layout(plan, (u, v),
k)``, one draw layout per step, built once per query and drawn in the same
fused passes as a whole draw): at each step the intra entries of u's and
v's communities and every pair with one of them as an end. A community
walks the walkers whose edge has an end within k hops of u or v, a pair
grid draws the rows and columns of u and v, and only the fake edges with an
end at u or v are kept.
Each entry draws under its own key, and each walker and cell at its own
counters, so each row kept equals the full draw's, and so does each feature.
The features read no other row, and a carry only drops rows. A custom
mechanism's samples keep the same rows, so no sample holds a whole-snapshot
draw. The likelihood of a prefix is the product, over its runs of dependent
steps (``_world_counts``), of the joint match frequency within the run,
which is exact for both mechanisms: a step whose layout copies nothing
starts a run.
A queried link has one posterior per timestamp, from one set-up shared by
both estimators (``_posterior_rows``): the prior at the query's t, one pair
of hypothesis worlds that every mechanism re-perturbs, and the posterior of
each prefix 0..t' for t' up to t. ``posterior_probability`` reads row t,
and ``indistinguishability_series`` maps rows 0..t to entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, TemporalGraphSequence, _absent_pairs, union_graph
from .markov import (TransitionMatrix, matrix_power, transition_matrix,
                     tv_distance, tv_distance_common)
from .perturb import (PerturbParams, _hash, _layout, _plan_chain, _root_key, _sample_blocks,
                      _static_plans)


@dataclass(frozen=True)
class LinkQuery:
    """A link whose privacy is being quantified at timestamp t."""

    t: int
    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("a link query needs two distinct vertices")
        if self.t < 0:
            raise ValueError("a link query needs a timestamp t >= 0")

    @property
    def pair(self) -> tuple[int, int]:
        return (min(self.u, self.v), max(self.u, self.v))


NEGATIVES_PER_POSITIVE = 1.0    # absent pairs the prior samples per snapshot edge


@dataclass(frozen=True)
class PriorModel:
    """Link-prediction prior: logistic calibration of common-neighbor counts.

    The posterior conditions its hypothesis worlds on the full original
    sequence except the queried link (the worst-case adversary); the prior
    is the calibrated scorer's probability for that link, clipped to
    [0.01, 0.99]. ``seed`` draws the calibration's absent pairs.
    """

    seed: int = 0


@dataclass(frozen=True)
class PosteriorEstimate:
    """``likelihood_with`` and ``likelihood_without`` are products, over the
    prefix's runs of dependent steps, of each run's add-one smoothed joint
    match frequency (c + 1) / (n + 2)."""

    probability: float
    standard_error: float
    samples: int
    prior: float
    likelihood_with: float
    likelihood_without: float
    degenerate: bool


def fit_logistic_1d(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Damped-Newton fit of P(y=1|x) = sigmoid(b0 + b1*x), at most 25 steps.

    Falls back to a constant model (slope 0, intercept = logit of the base
    rate) when the data are degenerate or separable.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    base = min(max(y.mean(), 1e-3), 1 - 1e-3) if y.size else 0.5
    fallback = (math.log(base / (1 - base)), 0.0)
    if y.size == 0 or np.all(y == y[0]) or np.all(x == x[0]):
        return fallback
    design = np.column_stack([np.ones_like(x), x])
    beta = np.array([fallback[0], 0.0])
    for _ in range(25):
        z = design @ beta
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
        grad = design.T @ (y - p)
        w = np.maximum(p * (1 - p), 1e-9)
        hess = (design * w[:, None]).T @ design + 1e-8 * np.eye(2)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return fallback
        norm = np.abs(step).max()
        if norm > 10.0:
            step = step * (10.0 / norm)
        beta = beta + step
        if norm < 1e-10:
            break
    if not np.all(np.isfinite(beta)):
        return fallback
    return float(beta[0]), float(beta[1])


_PRODUCT_ENTRIES = 1 << 20


def prior_probability(query: LinkQuery, model: PriorModel,
                      seq: TemporalGraphSequence) -> float:
    """Calibrated link-prediction prior for the queried pair, clipped.

    Positives are the snapshot's edges and negatives a matched sample of
    absent pairs, both excluding the queried pair; the score is the
    common-neighbor count (one sparse row product) through a fitted logistic.
    A query t past the sequence is refused.
    """
    if query.t >= len(seq):
        raise ValueError(f"query timestamp t={query.t} is past a sequence of {len(seq)} snapshots")
    graph = seq[query.t]
    if not (graph.has_vertex(query.u) and graph.has_vertex(query.v)):
        raise KeyError(f"query vertices absent at t={query.t}")
    qpair = tuple(graph.index_of(x) for x in query.pair)
    ends = graph.edge_positions
    pos = ends[(ends[:, 0] != qpair[0]) | (ends[:, 1] != qpair[1])]
    rng = np.random.default_rng(np.random.SeedSequence(model.seed))
    n_neg = max(1, int(round(NEGATIVES_PER_POSITIVE * max(len(pos), 1))))
    neg = _absent_pairs(graph, n_neg, rng, exclude=[qpair])
    pairs = np.concatenate([pos, neg, [qpair]])
    adj = graph.adjacency()
    # a block of pairs gathers at most _PRODUCT_ENTRIES adjacency entries
    block = max(1, _PRODUCT_ENTRIES // max(1, 2 * int(graph.degrees.max(initial=0))))
    common = np.concatenate([
        np.asarray(adj[b[:, 0]].multiply(adj[b[:, 1]]).sum(axis=1)).ravel()
        for b in np.split(pairs, np.arange(block, len(pairs), block))])
    y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    b0, b1 = fit_logistic_1d(common[:-1], y)
    score = b0 + b1 * common[-1]
    prob = 1.0 / (1.0 + math.exp(-max(min(score, 35.0), -35.0)))
    return float(min(max(prob, 0.01), 0.99))


# -- posterior via feature-likelihood surrogate -------------------------------


# width of the degree bins; exact-degree matching makes the Monte Carlo
# likelihood collapse on realistic sizes
DEGREE_BIN = 3


def _edge_feature(edges: np.ndarray, u: int, v: int) -> tuple[int, int, int]:
    """Queried-edge presence plus the binned perturbed degree pair.

    Rows may list an edge in either orientation. Degrees are discretized
    into bins of width ``DEGREE_BIN`` so the match probability of a feature
    stays bounded away from zero.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.column_stack([np.zeros(len(edges), dtype=np.int64), edges])
    return tuple(_edge_features(rows, u, v, 1)[0].tolist())


def _edge_features(rows: np.ndarray, u: int, v: int, samples: int) -> np.ndarray:
    """``_edge_feature`` of each of ``samples`` samples' rows [sample, a, b],
    as a (samples, 3) array."""
    sample, a, b = rows.T
    # column compares: a row-wise any() over two columns is several times slower
    at_u = (a == u) | (b == u)
    at_v = (a == v) | (b == v)
    return np.column_stack([
        np.bincount(sample[at_u & at_v], minlength=samples) > 0,
        np.bincount(sample[at_u], minlength=samples) // DEGREE_BIN,
        np.bincount(sample[at_v], minlength=samples) // DEGREE_BIN])


def observed_features(perturbed, query: LinkQuery) -> tuple:
    """Per-timestamp feature tuple of the observed perturbed prefix 0..t."""
    return tuple(_edge_feature(g.edges, query.u, query.v)
                 for g in perturbed[:query.t + 1])


def _hypothesis_world(seq: TemporalGraphSequence, query: LinkQuery,
                      present: bool) -> TemporalGraphSequence:
    """The original prefix with the queried link forced present or absent."""
    lo, hi = query.pair
    snaps = []
    for g in seq.snapshots[:query.t + 1]:
        if not (g.has_vertex(lo) and g.has_vertex(hi)):
            snaps.append(g)
            continue
        edges = g.edges
        edges = edges[(edges[:, 0] != lo) | (edges[:, 1] != hi)]
        if present:
            edges = np.vstack([edges, [[lo, hi]]])
        snaps.append(Graph(edges, vertices=g.vertices))
    return TemporalGraphSequence(snaps)


# the plan chain each named mechanism re-perturbs a world over
_MECHANISM_PLANS = {"linkmirage": _plan_chain,
                    "static": lambda world, params: _static_plans(world)}


class _SequenceSampler:
    """Re-perturbs a fixed hypothesis world over its plan chain, built once;
    a custom mechanism, callable(world, rng) -> edge arrays, has no plans."""

    def __init__(self, world: TemporalGraphSequence, params: PerturbParams,
                 mechanism):
        if not callable(mechanism) and mechanism not in _MECHANISM_PLANS:
            raise ValueError(f"mechanism must be 'linkmirage', 'static' or a callable, "
                             f"not {mechanism!r}")
        self.world = world
        self.k = params.k
        self.mechanism = mechanism
        self.plans = None if callable(mechanism) else _MECHANISM_PLANS[mechanism](world, params)

    def sample_features(self, uv: tuple[int, int], rng: np.random.Generator,
                        n: int) -> tuple[np.ndarray, np.ndarray]:
        """(features, fresh): the features of n re-perturbations, an (n,
        snapshots, 3) array whose row s holds sample s's ``_edge_feature``
        per snapshot, and per snapshot whether its draw copies nothing, so
        that it is independent of the steps before it.

        A planned mechanism takes one raw draw from ``rng`` as its root key
        (``perturb._root_key``), and step t's root is ``_hash(root, t)``.
        Samples run in the blocks of ``perturb._sample_blocks``, one
        ``_draws`` fold per block over each step's ball layout
        (``perturb._layout(plan, uv, k)``), which keeps only the rows with
        an end at u or v, the rows the features read. Walkers and cells
        read their own counters, so the features are the full draw's. Step
        t is fresh when its layout copies no entry. A custom callable draws
        one sample at a time from ``rng`` and keeps the same rows, so no
        sample holds a whole-snapshot draw; each of its steps is fresh.
        """
        u, v = uv
        steps = len(self.world)
        if self.plans is None:
            # rows [sample * snapshots + t, a, b]: one feature row per
            # (sample, snapshot), counted in one pass
            pieces = []
            for s in range(n):
                for t, edges in enumerate(self.mechanism(self.world, rng)):
                    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
                    edges = edges[np.isin(edges, uv).any(axis=1)]
                    pieces.append(np.column_stack([np.full(len(edges), s * steps + t), edges]))
            rows = np.concatenate(pieces)
            return (_edge_features(rows, u, v, n * steps).reshape(n, steps, 3),
                    np.ones(steps, dtype=bool))
        layouts = [_layout(plan, uv, self.k) for plan in self.plans]
        blocks = _sample_blocks(layouts, self.k, _hash(_root_key(rng), np.arange(steps)), n,
                                held=0)
        features = np.concatenate([np.stack([_edge_features(draw, u, v, size)
                                             for draw in fold], axis=1)
                                   for size, fold in blocks])
        return features, np.array([not layout.copies for layout in layouts])


def _world_counts(worlds: dict, query: LinkQuery, perturbed, params: PerturbParams,
                  mechanism, n_samples: int, rng: np.random.Generator) -> dict:
    """Match counts of the observed prefix 0..t in both hypothesis worlds,
    {present: world} for present True, then False.

    Re-perturbs each world ``n_samples`` times from its own child of ``rng``
    and returns {present: (counts, fresh)} for present True, then False,
    with fresh as ``_SequenceSampler.sample_features`` gives it: fresh[s]
    says that step s copies nothing the query's features read, which holds
    at every step of a static plan and of a custom callable. So a fresh step
    starts a run of dependent steps, independent of the runs before it, and
    counts[s] counts the samples that match every step of s's run up to s.
    """
    observed = observed_features(perturbed, query)
    out = {}
    for present, world in worlds.items():
        features, fresh = _SequenceSampler(world, params, mechanism).sample_features(
            (query.u, query.v), rng.spawn(1)[0], n_samples)
        match = (features == np.array(observed)).all(axis=2)
        counts = np.zeros(len(observed), dtype=np.int64)
        matched = np.ones(n_samples, dtype=bool)
        for s in range(len(observed)):
            matched = match[:, s] if fresh[s] else matched & match[:, s]
            counts[s] = np.count_nonzero(matched)
        out[present] = (counts, fresh)
    return out


def _bootstrap(rng: np.random.Generator, worlds: dict, n_samples: int) -> dict:
    """200 binomial bootstrap replicates of each world's match counts,
    {present: array (200, T)}, drawn for True and then False from one child
    of ``rng``."""
    boot_rng = rng.spawn(1)[0]
    return {present: boot_rng.binomial(n_samples, counts / n_samples, size=(200, counts.size))
            for present, (counts, _) in worlds.items()}


def _log_likelihoods(counts: np.ndarray, fresh: np.ndarray, n_samples: int) -> np.ndarray:
    """Log-likelihood of the observed prefix 0..t for every t on the last axis
    of ``counts``: the sum, over the runs up to t, of log (c + 1) / (n + 2),
    the add-one smoothed match frequency at the run's last step up to t."""
    # math.log, not np.log: the two round differently in the last bit
    logs = np.vectorize(math.log, otypes=[float])((counts + 1.0) / (n_samples + 2.0))
    closed = np.cumsum(np.where(fresh[1:], logs[..., :-1], 0.0), axis=-1)
    return np.concatenate([np.zeros_like(logs[..., :1]), closed], axis=-1) + logs


def _bayes_log(prior: float, loglike_with: float, loglike_without: float) -> float:
    # posterior odds in log space to survive long-horizon products
    log_odds = math.log(prior / (1.0 - prior)) + loglike_with - loglike_without
    if log_odds > 35:
        return 1.0
    if log_odds < -35:
        return 0.0
    return 1.0 / (1.0 + math.exp(-log_odds))


def _posteriors(prior: float, worlds: dict, n_samples: int,
                rng: np.random.Generator) -> tuple:
    """(posterior at every t, the same for each of 200 bootstrap replicates of
    the counts as rows of a (200, T) array, log-likelihoods {present: (T,)})."""
    boot = _bootstrap(rng, worlds, n_samples)
    loglike = {present: _log_likelihoods(np.vstack([counts, boot[present]]), fresh, n_samples)
               for present, (counts, fresh) in worlds.items()}
    rows = np.vectorize(lambda with_, without: _bayes_log(prior, with_, without),
                        otypes=[float])(loglike[True], loglike[False])
    return rows[0], rows[1:], {present: rows_[0] for present, rows_ in loglike.items()}


def _posterior_rows(seq: TemporalGraphSequence, runs, query: LinkQuery, model: PriorModel,
                    params: PerturbParams, n_samples: int, rng: np.random.Generator) -> tuple:
    """The set-up both estimators share: (the prior at ``query.t``, one
    (world counts, *``_posteriors``) per (mechanism, perturbed) pair of
    ``runs``, in order, each with rows 0..t). A t past ``seq`` or past a
    perturbed prefix is refused, and the two hypothesis worlds of the prefix
    0..t are built once, for every mechanism."""
    if n_samples < 100:
        raise ValueError("posterior estimation needs n_samples >= 100")
    prior = prior_probability(query, model, seq)
    for _, perturbed in runs:
        if query.t >= len(perturbed):
            raise ValueError(f"query timestamp t={query.t} is past a perturbed prefix of "
                             f"{len(perturbed)} graphs")
    worlds = {present: _hypothesis_world(seq, query, present) for present in (True, False)}
    out = []
    for mechanism, perturbed in runs:
        counts = _world_counts(worlds, query, perturbed, params, mechanism, n_samples, rng)
        out.append((counts, *_posteriors(prior, counts, n_samples, rng)))
    return prior, out


def posterior_probability(query: LinkQuery, seq: TemporalGraphSequence,
                          perturbed, model: PriorModel, params: PerturbParams,
                          n_samples: int, rng: np.random.Generator,
                          mechanism="linkmirage") -> PosteriorEstimate:
    """Monte Carlo worst-case posterior of the queried link.

    Builds the two hypothesis worlds (original prefix with the link forced
    present/absent), estimates the likelihood of the observed perturbed
    prefix under each over ``n_samples`` fresh re-perturbations, and combines
    with the calibrated prior: row t of ``_posterior_rows``, the set-up it
    shares with ``indistinguishability_series``. The standard error comes from a
    binomial bootstrap of the match counts. The estimate is degenerate when
    some step matched no sample of either world.
    """
    prior, [(counts, post, boot, loglike)] = _posterior_rows(
        seq, [(mechanism, perturbed)], query, model, params, n_samples, rng)
    t = query.t
    probability = float(post[t])
    se = float(np.std(boot[:, t]))
    degenerate = bool(((counts[True][0] == 0) & (counts[False][0] == 0)).any())
    if degenerate:
        se = max(se, 0.25)
    # keep probability +- 2*SE inside the [-0.05, 1.05] sanity band
    se = min(se, (1.05 - probability) / 2.0, (probability + 0.05) / 2.0)
    return PosteriorEstimate(probability=probability, standard_error=se,
                             samples=n_samples, prior=prior,
                             likelihood_with=math.exp(loglike[True][t]),
                             likelihood_without=math.exp(loglike[False][t]),
                             degenerate=degenerate)


def indistinguishability(posterior: float) -> float:
    """Binary entropy of the posterior, in bits; H(0) = H(1) = 0."""
    p = float(posterior)
    if not 0.0 <= p <= 1.0:
        raise ValueError("posterior must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def indistinguishability_series(seq: TemporalGraphSequence, perturbed_by_mechanism: dict,
                                query: LinkQuery, model: PriorModel,
                                params: PerturbParams, n_samples: int,
                                rng: np.random.Generator) -> dict:
    """Entropy of the posterior at each timestamp 0..``query.t``, per mechanism.

    ``perturbed_by_mechanism`` maps mechanism name ('linkmirage'/'static') to
    its observed perturbed sequence. Every mechanism re-perturbs one pair of
    hypothesis worlds, built once, through the set-up ``posterior_probability``
    uses, with the prior at ``query.t``: row t' is the entropy of the
    posterior of the prefix 0..t'. So a series of one mechanism ends in the
    entropy of ``posterior_probability``'s estimate under the same ``rng``
    state. Returns {mechanism: [(t', entropy_bits, entropy_se), ...]} for
    t' = 0..t.
    """
    _, rows = _posterior_rows(seq, perturbed_by_mechanism.items(), query, model, params,
                              n_samples, rng)
    return {mech: [(t, indistinguishability(p),
                    float(np.std([indistinguishability(b) for b in boot[:, t]])))
                   for t, p in enumerate(post)]
            for mech, (_, post, boot, _) in zip(perturbed_by_mechanism, rows)}


# -- anti-aggregation ---------------------------------------------------------


def anti_aggregation(g_t: Graph, g_prime_t: Graph, k: int) -> float:
    """TV distance between the k-step original TPM and the perturbed TPM:
    ``anti_aggregation_aggregated`` of the one graph."""
    if not np.array_equal(g_t.vertices, g_prime_t.vertices):
        raise ValueError("anti-aggregation needs identical vertex sets")
    return anti_aggregation_aggregated([g_prime_t], g_t, k)


def anti_aggregation_aggregated(perturbed, g_t: Graph, k: int) -> float:
    """Anti-aggregation against the union of all published perturbed graphs."""
    perturbed = list(perturbed)
    if not perturbed:
        raise ValueError("need at least one perturbed graph")
    union = union_graph(perturbed)
    p_k = matrix_power(transition_matrix(g_t), k)
    value, _common = tv_distance_common(p_k, transition_matrix(union))
    return value


@dataclass(frozen=True)
class BoundCheck:
    holds: bool
    lhs: float
    rhs: float


def estimation_error_bound_check(p: TransitionMatrix, p_prime: TransitionMatrix,
                                 p_hat: TransitionMatrix, k: int) -> BoundCheck:
    """Check ||P^k - P'||_TV <= k ||P - P_hat||_TV for a candidate estimate.

    ``p_hat`` must satisfy p_hat^k = p_prime within TV 1e-6; the
    anti-aggregation privacy then lower-bounds the adversary's estimation
    error (scaled by k).
    """
    if tv_distance(matrix_power(p_hat, k), p_prime) > 1e-6:
        raise ValueError("p_hat^k does not reproduce p_prime within tolerance")
    lhs = tv_distance(matrix_power(p, k), p_prime)
    rhs = k * tv_distance(p, p_hat)
    return BoundCheck(holds=bool(lhs <= rhs + 1e-9), lhs=lhs, rhs=rhs)
