"""Partially collapsed Gibbs sampler over (M, g, sigma2, alpha, beta, z).

One chain is a ChainState from init_chain advanced by step, once per
iteration; run_chain adds the burn-in freeze of the adapters, the finite
checks and the recording of kept draws. The update order lives in step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite

import numpy as np

from .core import (
    Dataset,
    DegenerateZ,
    HyperGOverN,
    ModelIndicator,
    PriorConfig,
    ScaleAdapter,
    center_design,
    inclusion_bits,
    validate_dataset,
)
from .g_sampler import G_TARGET_ACC, hyper_g_over_n_ppf, mh_update_g, step_sd
from .latent import BARKER_TARGET_ACC, update_all_latents
from .likelihoods import loglik_value_grad
from .linear_gaussian import SuffStatsCache, sample_alpha, sample_sigma2
from .model_space import model_mh_step, size_log_prior


@dataclass(frozen=True)
class ChainConfig:
    n_iter: int
    burn_in: int | None = None  # defaults to n_iter // 2
    thin: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        b = self.resolved_burn_in()
        if not (0 <= b < self.n_iter):
            raise ValueError(f"burn_in must lie in [0, n_iter), got {b}")

    def resolved_burn_in(self) -> int:
        return self.n_iter // 2 if self.burn_in is None else self.burn_in


@dataclass(frozen=True)
class ScalarSummary:
    mean: float
    sd: float
    q025: float
    q25: float
    median: float
    q75: float
    q975: float

    @staticmethod
    def from_draws(x: np.ndarray) -> "ScalarSummary":
        qs = np.quantile(x, [0.025, 0.25, 0.5, 0.75, 0.975])
        return ScalarSummary(float(x.mean()), float(x.std()), *map(float, qs))


@dataclass
class DrawStore:
    """Kept draws, one row per recorded iteration. A draw's model is the
    nonzero pattern of its beta row; `included` reads it off."""

    alpha: np.ndarray
    sigma2: np.ndarray
    g: np.ndarray
    beta: np.ndarray  # (S, p), zeros outside the model

    @property
    def n_kept(self) -> int:
        return self.alpha.shape[0]

    @property
    def included(self) -> np.ndarray:
        """(S, p) bool, a fresh array on each read."""
        return self.beta != 0.0

    @staticmethod
    def concat(stores: list["DrawStore"]) -> "DrawStore":
        return DrawStore(
            alpha=np.concatenate([s.alpha for s in stores]),
            sigma2=np.concatenate([s.sigma2 for s in stores]),
            g=np.concatenate([s.g for s in stores]),
            beta=np.concatenate([s.beta for s in stores]),
        )


@dataclass(frozen=True)
class ChainOutput:
    pip: np.ndarray
    beta_mean: np.ndarray
    beta_sd: np.ndarray
    alpha: ScalarSummary
    sigma2: ScalarSummary
    g: ScalarSummary
    top_models: list[tuple[str, float]]  # (inclusion bits, visit frequency)
    draws: DrawStore
    col_means: np.ndarray
    accept_model: float
    accept_g: float
    accept_latent: float
    # Adapted proposal scales at the end of the run: the latent step sizes
    # exp(log_scale), one per observation and chain, and the g proposal sd
    # averaged over chains (nan when g is fixed).
    latent_step: np.ndarray | None = None
    g_step_sd: float = np.nan

    @property
    def n_kept(self) -> int:
        return self.draws.n_kept


@dataclass(eq=False)
class ChainState:
    """Everything one iteration reads or writes, and what is derived once
    per chain. `step` mutates it in place."""

    M: ModelIndicator  # held by `cache`
    z: np.ndarray
    lik: tuple[np.ndarray, np.ndarray]  # likelihood (value, gradient) at z, carried sweep to sweep
    alpha: float
    sigma2: float
    g: float
    beta_k: np.ndarray  # coefficients of the held model's columns, in M.indices order
    cache: SuffStatsCache
    adapt_z: ScaleAdapter  # log step sds of the latent sweep
    adapt_g: ScaleAdapter  # log proposal variance of the g walk
    size_logp: tuple[float, ...]  # log prior of one model, by size
    hyper: bool  # g carries the hyper-g/n prior
    t: int = 0  # iterations done
    n_accept_model: int = 0
    n_accept_g: int = 0
    sum_accept_latent: float = 0.0  # per-iteration accepted fraction of the sweep


def init_chain(data: Dataset, prior: PriorConfig) -> ChainState:
    """Deterministic starting state: null model, z from a data transform."""
    y = data.y
    fam = data.family.name
    if fam == "pln":
        z0 = np.log(y + 0.5)
    elif fam == "bil":
        z0 = np.log(y + 0.5) - np.log(data.trials + 1.0 - (y + 0.5))
    else:  # nbl
        z0 = np.log(float(data.family.r)) - np.log(y + 0.5)
    gp = prior.gprior
    hyper = isinstance(gp, HyperGOverN)
    g = hyper_g_over_n_ppf(0.5, gp.a, data.n) if hyper else gp.g0
    M = ModelIndicator.null(data.p)
    cache = SuffStatsCache(center_design(data.X))
    cache.chol(M)  # M is the held model from here on
    return ChainState(
        M=M,
        z=z0,
        lik=loglik_value_grad(data.family, y, z0, data.trials),
        alpha=float(z0.mean()),
        sigma2=1.0,
        g=float(g),
        beta_k=np.zeros(0),
        cache=cache,
        adapt_z=ScaleAdapter(np.zeros(data.n), BARKER_TARGET_ACC),
        adapt_g=ScaleAdapter(0.0, G_TARGET_ACC),
        size_logp=size_log_prior(data.p, prior.model_size),
        hyper=hyper,
    )


def step(state: ChainState, data: Dataset, prior: PriorConfig, rng: np.random.Generator) -> None:
    """One iteration, updating state in place. The order is fixed and
    load-bearing:

        1. model move given z (beta, alpha, sigma2 integrated out)
        2. g move given (z, M) when g carries the hyper prior
        3. sigma2 | z, M, g
        4. alpha | z, sigma2
        5. beta_k | z, sigma2, M, g
        6. one Barker sweep over z given (alpha, beta, sigma2)

    Because step 1 works with the z-marginal rather than the full
    conditional given beta, permuting it past the parameter draws would
    change the stationary law; resist the temptation.
    """
    n, cache = data.n, state.cache
    try:
        cache.set_z(state.z)
    except DegenerateZ as exc:
        raise DegenerateZ(f"{exc} (model move, iteration {state.t})") from exc
    g = state.g
    M, accepted = model_mh_step(
        state.M,
        lambda drop, add: cache.move_log_marginal(drop, add, g),
        state.size_logp,
        rng,
    )
    if accepted and cache.chol(M) is None:  # hold the accepted model
        raise np.linalg.LinAlgError(
            f"accepted model is rank-deficient (model move, iteration {state.t})"
        )
    state.n_accept_model += accepted
    s = cache.light_stats(M)
    if state.hyper:
        g, g_accepted = mh_update_g(
            g,
            lambda gi: cache.log_marginal(M, gi),
            n,
            prior.gprior.a,
            state.adapt_g,
            rng,
        )
        state.n_accept_g += g_accepted
    sigma2 = sample_sigma2(s, n, g, rng)
    alpha = sample_alpha(s, n, sigma2, rng)
    beta_k = cache.sample_beta(M, sigma2, g, rng)
    linpred = cache.linpred(alpha, beta_k)
    z, lat_accepted, state.lik = update_all_latents(
        state.z, state.lik, data.y, data.trials, linpred, sigma2, data.family, state.adapt_z, rng
    )
    state.sum_accept_latent += np.count_nonzero(lat_accepted) / n
    state.M, state.z, state.alpha, state.sigma2, state.g = M, z, alpha, sigma2, g
    state.beta_k = beta_k
    state.t += 1


def summarize(
    draws: DrawStore,
    col_means: np.ndarray,
    accept_model: float = np.nan,
    accept_g: float = np.nan,
    accept_latent: float = np.nan,
    latent_step: np.ndarray | None = None,
    g_step_sd: float = np.nan,
) -> ChainOutput:
    included = draws.included
    S = included.shape[0]
    pip = included.mean(axis=0)
    # One byte string per row: the packed rows sort as the boolean rows do.
    packed = np.packbits(included, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    top = [(inclusion_bits(included[first[i]]), float(counts[i]) / S) for i in order]
    return ChainOutput(
        pip=pip,
        beta_mean=draws.beta.mean(axis=0),
        beta_sd=draws.beta.std(axis=0),
        alpha=ScalarSummary.from_draws(draws.alpha),
        sigma2=ScalarSummary.from_draws(draws.sigma2),
        g=ScalarSummary.from_draws(draws.g),
        top_models=top,
        draws=draws,
        col_means=np.asarray(col_means, dtype=np.float64),
        accept_model=accept_model,
        accept_g=accept_g,
        accept_latent=accept_latent,
        latent_step=latent_step,
        g_step_sd=g_step_sd,
    )


def run_chain(data: Dataset, prior: PriorConfig, config: ChainConfig) -> ChainOutput:
    validate_dataset(data)
    rng = np.random.default_rng(config.seed)
    state = init_chain(data, prior)

    burn_in = config.resolved_burn_in()
    n_keep = len(range(burn_in, config.n_iter, config.thin))
    store = DrawStore(
        alpha=np.empty(n_keep),
        sigma2=np.empty(n_keep),
        g=np.empty(n_keep),
        beta=np.zeros((n_keep, data.p)),
    )
    kept = 0
    for t in range(config.n_iter):
        if t == burn_in:
            state.adapt_z.frozen = True
            state.adapt_g.frozen = True
        step(state, data, prior, rng)
        alpha, sigma2, g = state.alpha, state.sigma2, state.g
        if not (isfinite(alpha) and isfinite(sigma2) and sigma2 > 0 and isfinite(g)):
            raise RuntimeError(f"non-finite sampler state at iteration {t}")
        if not np.all(np.isfinite(state.z)):
            raise RuntimeError(f"non-finite latent vector at iteration {t}")

        if t >= burn_in and (t - burn_in) % config.thin == 0:
            store.alpha[kept] = alpha
            store.sigma2[kept] = sigma2
            store.g[kept] = g
            store.beta[kept, state.M.indices] = state.beta_k
            kept += 1

    hyper = state.hyper
    return summarize(
        store,
        state.cache.design.col_means,
        accept_model=state.n_accept_model / config.n_iter,
        accept_g=state.n_accept_g / config.n_iter if hyper else np.nan,
        accept_latent=state.sum_accept_latent / config.n_iter,
        latent_step=np.exp(state.adapt_z.log_scale),
        g_step_sd=step_sd(state.adapt_g) if hyper else np.nan,
    )


def run_chains(
    data: Dataset,
    prior: PriorConfig,
    config: ChainConfig,
    n_chains: int,
) -> ChainOutput:
    """Independent chains with seeds seed + chain index, merged by pooling draws."""
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    outs = [
        run_chain(data, prior, replace(config, seed=config.seed + c)) for c in range(n_chains)
    ]
    merged = DrawStore.concat([o.draws for o in outs])
    return summarize(
        merged,
        outs[0].col_means,
        accept_model=float(np.mean([o.accept_model for o in outs])),
        accept_g=float(np.mean([o.accept_g for o in outs])),
        accept_latent=float(np.mean([o.accept_latent for o in outs])),
        latent_step=np.concatenate([o.latent_step for o in outs]),
        g_step_sd=float(np.mean([o.g_step_sd for o in outs])),
    )
