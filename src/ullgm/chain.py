"""Partially collapsed Gibbs sampler over (M, g, sigma2, alpha, beta, z).

Update order within one iteration is fixed and load-bearing:

    1. model move given z (beta, alpha, sigma2 integrated out)
    2. g move given (z, M) when g carries the hyper prior
    3. sigma2 | z, M, g
    4. alpha | z, sigma2
    5. beta_k | z, sigma2, M, g
    6. one Barker sweep over z given (alpha, beta, sigma2)

Because step 1 works with the z-marginal rather than the full conditional
given beta, permuting it past the parameter draws would change the
stationary law; resist the temptation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    DegenerateZ,
    FixedG,
    GaussianLayerState,
    HyperGOverN,
    ModelIndicator,
    PosteriorImproprietyRisk,
    PriorConfig,
    StructuralError,
    center_design,
    inclusion_bits,
    validate_dataset,
)
from .g_sampler import GAdaptState, hyper_g_over_n_ppf, mh_update_g
from .latent import LatentAdaptState, update_all_latents
from .likelihoods import loglik_value_grad
from .linear_gaussian import SuffStatsCache, sample_alpha, sample_sigma2
from .model_space import ModelPriorParams, model_mh_step


@dataclass(frozen=True)
class ChainConfig:
    n_iter: int
    burn_in: int | None = None  # defaults to n_iter // 2
    thin: int = 1
    seed: int = 0
    store_beta: bool = True
    fixed_sigma2: float | None = None  # pin sigma2 (no draw); tiny value ~ GLM limit

    def __post_init__(self) -> None:
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        b = self.resolved_burn_in()
        if not (0 <= b < self.n_iter):
            raise ValueError(f"burn_in must lie in [0, n_iter), got {b}")
        if self.fixed_sigma2 is not None and not (self.fixed_sigma2 > 0):
            raise ValueError("fixed_sigma2 must be positive")

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
    """Kept draws, one row per recorded iteration."""

    alpha: np.ndarray
    sigma2: np.ndarray
    g: np.ndarray
    included: np.ndarray  # (S, p) bool
    beta: np.ndarray | None  # (S, p), zeros outside the model

    @property
    def n_kept(self) -> int:
        return self.alpha.shape[0]

    @staticmethod
    def concat(stores: list["DrawStore"]) -> "DrawStore":
        return DrawStore(
            alpha=np.concatenate([s.alpha for s in stores]),
            sigma2=np.concatenate([s.sigma2 for s in stores]),
            g=np.concatenate([s.g for s in stores]),
            included=np.concatenate([s.included for s in stores], axis=0),
            beta=None if stores[0].beta is None else np.concatenate([s.beta for s in stores]),
        )


@dataclass(frozen=True)
class ChainOutput:
    pip: np.ndarray
    beta_mean: np.ndarray | None
    beta_sd: np.ndarray | None
    alpha: ScalarSummary
    sigma2: ScalarSummary
    g: ScalarSummary
    model_size_counts: np.ndarray  # counts of kept draws by model size
    top_models: list[tuple[str, float]]  # (inclusion bits, visit frequency)
    draws: DrawStore
    col_means: np.ndarray
    accept_model: float
    accept_g: float
    accept_latent: float
    # Adapted proposal scales at the end of the run: the latent step sizes
    # exp(log_step), one per observation and chain, and the g proposal sd
    # averaged over chains (nan when g is fixed).
    latent_step: np.ndarray | None = None
    g_step_sd: float = np.nan

    @property
    def n_kept(self) -> int:
        return self.draws.n_kept

    def mean_model_size(self) -> float:
        sizes = np.arange(self.model_size_counts.shape[0])
        total = self.model_size_counts.sum()
        return float((sizes * self.model_size_counts).sum() / total)


def init_chain(
    data: Dataset, prior: PriorConfig, config: ChainConfig
) -> tuple[ModelIndicator, GaussianLayerState]:
    """Deterministic starting state: null model, z from a data transform."""
    y = data.y
    fam = data.family.name
    if fam == "pln":
        z0 = np.log(y + 0.5)
    elif fam == "bil":
        z0 = np.log(y + 0.5) - np.log(data.trials + 1.0 - (y + 0.5))
    else:  # nbl
        z0 = np.log(float(data.family.r)) - np.log(y + 0.5)
    sigma2 = config.fixed_sigma2 if config.fixed_sigma2 is not None else 1.0
    gp = prior.gprior
    g = gp.g0 if isinstance(gp, FixedG) else hyper_g_over_n_ppf(0.5, gp.a, data.n)
    state = GaussianLayerState(
        z=z0, alpha=float(z0.mean()), beta=np.zeros(data.p), sigma2=float(sigma2), g=float(g)
    )
    return ModelIndicator.null(data.p), state


def summarize(
    draws: DrawStore,
    col_means: np.ndarray,
    accept_model: float = np.nan,
    accept_g: float = np.nan,
    accept_latent: float = np.nan,
    latent_step: np.ndarray | None = None,
    g_step_sd: float = np.nan,
) -> ChainOutput:
    S, p = draws.included.shape
    pip = draws.included.mean(axis=0)
    beta_mean = beta_sd = None
    if draws.beta is not None:
        beta_mean = draws.beta.mean(axis=0)
        beta_sd = draws.beta.std(axis=0)
    sizes = draws.included.sum(axis=1)
    size_counts = np.bincount(sizes, minlength=p + 1)
    patterns, counts = np.unique(draws.included, axis=0, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    top = [(inclusion_bits(patterns[i]), float(counts[i]) / S) for i in order]
    return ChainOutput(
        pip=pip,
        beta_mean=beta_mean,
        beta_sd=beta_sd,
        alpha=ScalarSummary.from_draws(draws.alpha),
        sigma2=ScalarSummary.from_draws(draws.sigma2),
        g=ScalarSummary.from_draws(draws.g),
        model_size_counts=size_counts,
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
    report = validate_dataset(data)
    if not report.ok:
        exc = StructuralError if report.code == "structural" else PosteriorImproprietyRisk
        raise exc(report.message)
    n, p = data.n, data.p
    params = ModelPriorParams.from_expected_size(p, prior.model_size)

    design = center_design(data.X)
    cache = SuffStatsCache(design)
    rng = np.random.default_rng(config.seed)
    hyper = isinstance(prior.gprior, HyperGOverN)

    M, state = init_chain(data, prior, config)
    cache.chol(M)  # M is the held model from here on
    z, alpha, sigma2, g = state.z.copy(), state.alpha, state.sigma2, state.g
    beta_full = state.beta.copy()

    burn_in = config.resolved_burn_in()
    keep_iters = range(burn_in, config.n_iter, config.thin)
    n_keep = len(keep_iters)
    adapt_z = LatentAdaptState.fresh(n)
    adapt_g = GAdaptState()

    store = DrawStore(
        alpha=np.empty(n_keep),
        sigma2=np.empty(n_keep),
        g=np.empty(n_keep),
        included=np.empty((n_keep, p), dtype=bool),
        beta=np.empty((n_keep, p)) if config.store_beta else None,
    )

    y, trials = data.y, data.trials
    # Likelihood (value, gradient) at z, carried from sweep to sweep.
    lik = loglik_value_grad(data.family, y, z, trials)
    acc_model = 0
    acc_g = 0
    acc_latent = 0.0
    kept = 0
    for t in range(config.n_iter):
        if t == burn_in:
            adapt_z.frozen = True
            adapt_g.frozen = True

        try:
            cache.set_z(z)
        except DegenerateZ as exc:
            raise DegenerateZ(f"{exc} (model move, iteration {t})") from exc
        M, accepted = model_mh_step(
            M, lambda drop, add: cache.move_log_marginal(drop, add, g), params, rng
        )
        if accepted:
            cache.chol(M)  # hold the accepted model
        acc_model += accepted
        s = cache.light_stats(M)
        if hyper:
            g, g_accepted = mh_update_g(
                g, lambda gi: cache.log_marginal(M, gi), n, prior.gprior.a, adapt_g, rng
            )
            acc_g += g_accepted
        if config.fixed_sigma2 is None:
            sigma2 = sample_sigma2(s, M.p_k, n, g, rng)
        alpha = sample_alpha(s, n, sigma2, rng)
        beta_full[:] = 0.0
        if M.p_k:
            beta_full[M.indices] = cache.sample_beta(M, sigma2, g, rng)
        linpred = alpha + design.Xc @ beta_full
        z, lat_accepted, lik = update_all_latents(
            z, lik, y, trials, linpred, sigma2, data.family, adapt_z, rng
        )
        acc_latent += np.count_nonzero(lat_accepted) / n

        if not (np.isfinite(alpha) and np.isfinite(sigma2) and sigma2 > 0 and np.isfinite(g)):
            raise RuntimeError(f"non-finite sampler state at iteration {t}")
        if not np.all(np.isfinite(z)):
            raise RuntimeError(f"non-finite latent vector at iteration {t}")

        if t >= burn_in and (t - burn_in) % config.thin == 0:
            store.alpha[kept] = alpha
            store.sigma2[kept] = sigma2
            store.g[kept] = g
            store.included[kept] = M.included
            if store.beta is not None:
                store.beta[kept] = beta_full
            kept += 1

    return summarize(
        store,
        design.col_means,
        accept_model=acc_model / config.n_iter,
        accept_g=acc_g / config.n_iter if hyper else np.nan,
        accept_latent=acc_latent / config.n_iter,
        latent_step=np.exp(adapt_z.log_step),
        g_step_sd=adapt_g.step_sd() if hyper else np.nan,
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
