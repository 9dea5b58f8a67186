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

Re-perturbations of the LinkMirage mechanism draw every step through
``perturb._sample_step``, the function that makes the release, with the
sample's previous step as the carried edges. Both estimators share one
Monte Carlo core, ``_world_counts``, and one bootstrap, ``_bootstrap``:
``posterior_probability`` reads the prefix match counts and
``indistinguishability_series`` the per-step counts of innovation steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, TemporalGraphSequence, _absent_pairs, union_graph
from .markov import (TransitionMatrix, matrix_power, transition_matrix,
                     tv_distance, tv_distance_common)
from .perturb import PerturbParams, _perturb_edges, _plan_chain, _sample_step, _step_edges


@dataclass(frozen=True)
class LinkQuery:
    """A link whose privacy is being quantified at timestamp t."""

    t: int
    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("a link query needs two distinct vertices")

    @property
    def pair(self) -> tuple[int, int]:
        return (min(self.u, self.v), max(self.u, self.v))


@dataclass(frozen=True)
class PriorModel:
    """Link-prediction prior: logistic calibration of common-neighbor counts.

    The posterior conditions its hypothesis worlds on the full original
    sequence except the queried link (the worst-case adversary); the prior
    is the calibrated scorer's probability for that link, clipped to
    [0.01, 0.99].
    """

    negatives_per_positive: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class PosteriorEstimate:
    probability: float
    standard_error: float
    samples: int
    prior: float
    likelihood_with: float
    likelihood_without: float
    degenerate: bool = False


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
    """
    graph = seq[query.t]
    if not (graph.has_vertex(query.u) and graph.has_vertex(query.v)):
        raise KeyError(f"query vertices absent at t={query.t}")
    qpair = tuple(graph.index_of(x) for x in query.pair)
    ends = graph.edge_positions
    pos = ends[(ends[:, 0] != qpair[0]) | (ends[:, 1] != qpair[1])]
    rng = np.random.default_rng(np.random.SeedSequence(model.seed))
    n_neg = max(1, int(round(model.negatives_per_positive * max(len(pos), 1))))
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
    # column compares: a row-wise any() over two columns is several times slower
    at_u = (edges[:, 0] == u) | (edges[:, 1] == u)
    at_v = (edges[:, 0] == v) | (edges[:, 1] == v)
    return (int((at_u & at_v).any()), int(np.count_nonzero(at_u)) // DEGREE_BIN,
            int(np.count_nonzero(at_v)) // DEGREE_BIN)


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
        mask = ~((edges[:, 0] == lo) & (edges[:, 1] == hi))
        edges = edges[mask]
        if present:
            edges = np.vstack([edges, [[lo, hi]]]) if edges.size else np.array([[lo, hi]])
        snaps.append(Graph(edges, vertices=g.vertices))
    return TemporalGraphSequence(snaps)


class _SequenceSampler:
    """Re-perturbs a fixed hypothesis world; clustering work done once."""

    def __init__(self, world: TemporalGraphSequence, params: PerturbParams,
                 mechanism):
        self.world = world
        self.params = params
        self.mechanism = mechanism
        self.plans = _plan_chain(world, params) if mechanism == "linkmirage" else None

    def sample_features(self, uv: tuple[int, int], rng: np.random.Generator) -> tuple:
        u, v = uv
        if self.mechanism == "static":
            draws = [_perturb_edges(g_t, self.params.k, rng) for g_t in self.world.snapshots]
        elif self.mechanism == "linkmirage":
            draws, carried = [], None
            for plan in self.plans:
                carried = _sample_step(plan, carried, self.params, rng)
                draws.append(_step_edges(*carried))
        else:
            # custom mechanism: callable(world, rng) -> list of edge arrays
            draws = self.mechanism(self.world, rng)
        return tuple(_edge_feature(edges, u, v) for edges in draws)


def _world_counts(seq: TemporalGraphSequence, query: LinkQuery, perturbed,
                  params: PerturbParams, mechanism, n_samples: int,
                  rng: np.random.Generator) -> dict:
    """Match counts of the observed prefix 0..t in both hypothesis worlds.

    Re-perturbs each world ``n_samples`` times from its own child of ``rng``
    and returns {present: (prefix, step, innovates)} for present True, then
    False: prefix[s] counts the samples that match the observation at every
    step up to s, step[s] those that match at step s, and innovates[s] says
    whether step s draws fresh randomness that can touch the queried pair.
    Any other step carries the pair's edges from the step before, so it adds
    no new evidence. The first step always innovates.
    """
    if n_samples < 100:
        raise ValueError("posterior estimation needs n_samples >= 100")
    observed = observed_features(perturbed, query)
    uv = (query.u, query.v)
    out = {}
    for present in (True, False):
        sampler = _SequenceSampler(_hypothesis_world(seq, query, present), params, mechanism)
        stream = rng.spawn(1)[0]
        prefix = np.zeros(len(observed), dtype=np.int64)
        step = np.zeros(len(observed), dtype=np.int64)
        for _ in range(n_samples):
            feats = sampler.sample_features(uv, stream)
            match = np.array([f == o for f, o in zip(feats, observed)], dtype=bool)
            step += match
            prefix += np.logical_and.accumulate(match)
        innovates = ([True] * len(observed) if sampler.plans is None else
                     [t == 0 or plan.redraws(uv) for t, plan in enumerate(sampler.plans)])
        out[present] = (prefix, step, innovates)
    return out


def _likelihood(count, n_samples: int) -> float:
    """Add-one smoothed match frequency."""
    return (count + 1.0) / (n_samples + 2.0)


def _bootstrap(rng: np.random.Generator, counts: dict, n_samples: int) -> dict:
    """200 binomial bootstrap replicates of each world's match counts,
    {present: array (200,) + shape of its counts}, drawn for True and then
    False from one child of ``rng``."""
    boot_rng = rng.spawn(1)[0]
    return {present: boot_rng.binomial(n_samples, np.asarray(counts[present]) / n_samples,
                                       size=(200,) + np.shape(counts[present]))
            for present in (True, False)}


def _bayes(prior: float, like_with: float, like_without: float) -> float:
    denom = prior * like_with + (1.0 - prior) * like_without
    if denom <= 0.0:
        return prior
    return prior * like_with / denom


def posterior_probability(query: LinkQuery, seq: TemporalGraphSequence,
                          perturbed, model: PriorModel, params: PerturbParams,
                          n_samples: int, rng: np.random.Generator,
                          mechanism="linkmirage") -> PosteriorEstimate:
    """Monte Carlo worst-case posterior of the queried link.

    Builds the two hypothesis worlds (original prefix with the link forced
    present/absent), estimates the likelihood of the observed perturbed
    prefix under each by the feature surrogate over ``n_samples`` fresh
    re-perturbations, and combines with the calibrated prior. The standard
    error comes from a binomial bootstrap of the two match counts.
    """
    prior = prior_probability(query, model, seq)
    worlds = _world_counts(seq, query, perturbed, params, mechanism, n_samples, rng)
    counts = {present: int(prefix[query.t]) for present, (prefix, _, _) in worlds.items()}
    like1, like0 = _likelihood(counts[True], n_samples), _likelihood(counts[False], n_samples)
    post = _bayes(prior, like1, like0)

    boot = _bootstrap(rng, counts, n_samples)
    se = float(np.std([_bayes(prior, _likelihood(x1, n_samples), _likelihood(x0, n_samples))
                       for x1, x0 in zip(boot[True], boot[False])]))
    degenerate = counts[True] == 0 and counts[False] == 0
    if degenerate:
        se = max(se, 0.25)
    # keep probability +- 2*SE inside the [-0.05, 1.05] sanity band
    se = min(se, (1.05 - post) / 2.0, (post + 0.05) / 2.0)
    return PosteriorEstimate(probability=float(post), standard_error=se,
                             samples=n_samples, prior=prior,
                             likelihood_with=like1, likelihood_without=like0,
                             degenerate=degenerate)


def indistinguishability(posterior: float) -> float:
    """Binary entropy of the posterior, in bits; H(0) = H(1) = 0."""
    p = float(posterior)
    if not 0.0 <= p <= 1.0:
        raise ValueError("posterior must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _bayes_log(prior: float, loglike_with: float, loglike_without: float) -> float:
    # posterior odds in log space to survive long-horizon products
    log_odds = math.log(prior / (1.0 - prior)) + loglike_with - loglike_without
    if log_odds > 35:
        return 1.0
    if log_odds < -35:
        return 0.0
    return 1.0 / (1.0 + math.exp(-log_odds))


def indistinguishability_series(seq: TemporalGraphSequence, perturbed_by_mechanism: dict,
                                query: LinkQuery, model: PriorModel,
                                params: PerturbParams, n_samples: int,
                                rng: np.random.Generator) -> dict:
    """Entropy of the posterior per timestamp for each mechanism.

    ``perturbed_by_mechanism`` maps mechanism name ('linkmirage'/'static') to
    its observed perturbed sequence. The prefix likelihood factorizes over
    innovation steps: perturbations are independent across timestamps given
    the hypothesis world, and a verbatim-reused step replicates the queried
    pair's feature deterministically (factor 1). One batch of
    re-perturbations per world serves every prefix. Returns
    {mechanism: [(t, entropy_bits, entropy_se), ...]}.
    """
    horizon = len(seq)
    full_query = LinkQuery(t=horizon - 1, u=query.u, v=query.v)
    prior = prior_probability(full_query, model, seq)
    out = {}
    for mech, perturbed in perturbed_by_mechanism.items():
        worlds = _world_counts(seq, full_query, perturbed, params, mech, n_samples, rng)
        boot = _bootstrap(rng, {present: step for present, (_, step, _) in worlds.items()},
                          n_samples)

        def prefix_loglike(present, t, step_counts):
            total = 0.0
            for s in range(t + 1):
                if worlds[present][2][s]:
                    total += math.log(_likelihood(step_counts[s], n_samples))
            return total

        def entropy(t, with_counts, without_counts):
            return indistinguishability(_bayes_log(
                prior, prefix_loglike(True, t, with_counts),
                prefix_loglike(False, t, without_counts)))

        out[mech] = [(t, entropy(t, worlds[True][1], worlds[False][1]),
                      float(np.std([entropy(t, x1, x0)
                                    for x1, x0 in zip(boot[True], boot[False])])))
                     for t in range(horizon)]
    return out


# -- anti-aggregation ---------------------------------------------------------


def anti_aggregation(g_t: Graph, g_prime_t: Graph, k: int) -> float:
    """TV distance between the k-step original TPM and the perturbed TPM."""
    if not np.array_equal(g_t.vertices, g_prime_t.vertices):
        raise ValueError("anti-aggregation needs identical vertex sets")
    p_k = matrix_power(transition_matrix(g_t), k)
    return tv_distance(p_k, transition_matrix(g_prime_t))


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
