"""Front-end planning: stage bin counts, delay-chain shifts, screening.

A plan fixes, for an admissible length n:

* d subsampling stages, stage i keeping every (n/f_i)-th sample and
  producing f_i bins (each f_i divides n);
* D = clusters * per_cluster circular shifts shared by all stages.
  Shift (c, j) = (head_c + j * base**c) mod n, j = 0..per_cluster-1,
  with a random head per cluster.  base is the smallest prime that does
  not divide n, so consecutive same-cluster shifts alias distinctly.

Admissible n are kept in a preset table; each entry records the
pairwise-coprime base factors whose product is n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .randomness import generator

_STREAM_DELAYS = 0xB1

MAX_SHIFT_DRAWS = 200


class PlanningError(ValueError):
    """Raised when no admissible plan exists for the request."""


@dataclass(frozen=True)
class Preset:
    """An admissible length with its coprime factorization.

    factors multiply to n and are pairwise coprime.  scale > 1 marks a
    stretched member of a sweep family: n = scale * prod(factors) with
    the base bin counts kept, so the sampling periods grow with n.
    forced_d pins the stage count regardless of sparsity (used by the
    20-point reference preset, which is a 2-stage design).
    """

    name: str
    n: int
    factors: tuple[int, ...]
    forced_d: int | None = None
    scale: int = 1


def _build_presets() -> dict[str, Preset]:
    entries = [
        Preset("paper-20", 20, (4, 5), forced_d=2),
        Preset("n504", 504, (7, 8, 9)),
        Preset("n990", 990, (9, 10, 11)),
        Preset("paper-1430", 1430, (10, 11, 13)),
        Preset("n2730", 2730, (13, 14, 15)),
        Preset("n4845", 4845, (15, 17, 19)),
        Preset("paper-124950", 124950, (49, 50, 51)),
    ]
    for j in range(2, 13):
        entries.append(Preset(f"paper-124950x{j}", 124950 * j, (49, 50, 51), scale=j))
    return {p.name: p for p in entries}


PRESETS: dict[str, Preset] = _build_presets()
_PRESETS_BY_N: dict[int, Preset] = {p.n: p for p in PRESETS.values()}


def preset_by_name(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise PlanningError(
            f"unknown preset {name!r}; known presets: {', '.join(sorted(PRESETS))}"
        ) from None


def preset_for_length(n: int) -> Preset:
    try:
        return _PRESETS_BY_N[n]
    except KeyError:
        closest = min(_PRESETS_BY_N, key=lambda m: abs(math.log(m / n)))
        raise PlanningError(
            f"n={n} has no preset factorization; closest admissible n is {closest}"
        ) from None


def sparsity_index(n: int, k: int) -> float:
    """delta such that k = n**delta (0 for k <= 1)."""
    if k <= 1:
        return 0.0
    return math.log(k) / math.log(n)


def plan_stages(n: int, k: int) -> tuple[int, tuple[int, ...]]:
    """Choose the stage count d and per-stage bin counts for (n, k).

    Regimes split at delta = 1/3 where k = n**delta.  Very sparse keeps
    the d = 3 coprime base factors as bin counts.  Less sparse uses
    d = round(1/(1-delta)) stages whose bin counts are products of d-1
    cyclically consecutive base factors, so every pair of stages shares
    all but one factor.  Stretched presets keep the base bin counts.
    """
    if k < 0 or k > n:
        raise PlanningError(f"k must lie in [0, n], got k={k}, n={n}")
    preset = preset_for_length(n)
    factors = preset.factors
    if preset.forced_d is not None:
        return preset.forced_d, tuple(sorted(factors))

    delta = sparsity_index(n, k)
    if delta <= 1.0 / 3.0:
        if len(factors) != 3:
            raise PlanningError(
                f"preset {preset.name} offers {len(factors)} coprime factors; "
                "the very-sparse regime needs exactly 3"
            )
        return 3, tuple(sorted(factors))

    d = round(1.0 / (1.0 - delta))
    if d < 2:
        d = 2
    if d != len(factors):
        raise PlanningError(
            f"k={k} at n={n} asks for d={d} stages but preset {preset.name} "
            f"offers {len(factors)} coprime factors"
        )
    composite = tuple(
        math.prod(factors[(i + j) % d] for j in range(d - 1)) for i in range(d)
    )
    return d, composite


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % r for r in range(2, int(math.isqrt(q)) + 1))


def smallest_coprime_base(n: int) -> int:
    """Smallest prime not dividing n."""
    p = 2
    while n % p == 0:
        p += 1
        while not _is_prime(p):
            p += 1
    return p


@dataclass(frozen=True)
class ClusterParams:
    clusters: int
    per_cluster: int
    base: int


def choose_cluster_params(n: int, c1: float = 8.0) -> ClusterParams:
    """Cluster count, chains per cluster, and shift base for length n.

    clusters is the smallest C with base**(C-1) * c1 > n, so the final
    refinement interval 2*pi/(base**(C-1)*c1) is finer than the 2*pi/n
    frequency grid.  per_cluster follows max(2, round(2 * ln(n)**(1/3))).
    """
    if n < 2:
        raise PlanningError(f"n must be at least 2, got {n}")
    if c1 <= 0:
        raise PlanningError(f"c1 must be positive, got {c1}")
    base = smallest_coprime_base(n)
    c_minus_1 = 0
    power = 1
    while power * c1 <= n:
        power *= base
        c_minus_1 += 1
    clusters = max(1, c_minus_1 + 1)
    per_cluster = max(2, round(2.0 * math.log(n) ** (1.0 / 3.0)))
    return ClusterParams(clusters, per_cluster, base)


def cluster_shifts(heads: np.ndarray, per_cluster: int, base: int, n: int) -> np.ndarray:
    """Expand cluster heads into the full shift sequence, cluster-major."""
    heads = np.asarray(heads, dtype=object)
    shifts = []
    for c, head in enumerate(heads):
        step = base**c  # exact integer power; reduced mod n below
        shifts.extend((int(head) + j * step) % n for j in range(per_cluster))
    return np.array(shifts, dtype=np.int64)


def plan_delays(n: int, clusters: int, per_cluster: int, base: int, seed: int) -> np.ndarray:
    """Draw random cluster heads and expand them into D = clusters*per_cluster shifts."""
    if per_cluster < 2:
        raise PlanningError(f"per_cluster must be at least 2, got {per_cluster}")
    if clusters < 1:
        raise PlanningError(f"clusters must be at least 1, got {clusters}")
    rng = generator(seed, _STREAM_DELAYS)
    heads = rng.integers(0, n, size=clusters)
    return cluster_shifts(heads, per_cluster, base, n)


@dataclass(frozen=True)
class FrontendPlan:
    """Subsampling geometry shared by the front end and the decoder."""

    n: int
    bin_counts: tuple[int, ...]
    clusters: int
    per_cluster: int
    base: int
    shifts: tuple[int, ...]
    gamma: float = 0.2
    c1: float = 8.0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if len(self.bin_counts) < 2:
            raise ValueError("a plan needs at least 2 stages")
        for f in self.bin_counts:
            if f < 2 or self.n % f != 0:
                raise ValueError(f"bin count {f} must divide n={self.n} and exceed 1")
        if self.base < 2 or self.n % self.base == 0:
            raise ValueError(f"base {self.base} must be coprime to n={self.n}")
        if self.clusters * self.per_cluster != len(self.shifts):
            raise ValueError("clusters * per_cluster must equal the shift count")
        object.__setattr__(self, "bin_counts", tuple(int(f) for f in self.bin_counts))
        object.__setattr__(self, "shifts", tuple(int(r) % self.n for r in self.shifts))
        if not 0.0 < self.gamma <= 1.0 / 3.0:
            raise ValueError(f"gamma must lie in (0, 1/3], got {self.gamma}")
        if self.c1 <= 0:
            raise ValueError(f"c1 must be positive, got {self.c1}")

    @property
    def d(self) -> int:
        return len(self.bin_counts)

    @property
    def chain_count(self) -> int:
        return len(self.shifts)

    @property
    def periods(self) -> tuple[int, ...]:
        return tuple(self.n // f for f in self.bin_counts)

    @property
    def sample_count(self) -> int:
        """Time-domain samples read: chain_count per bin, every bin."""
        return self.chain_count * sum(self.bin_counts)

    @property
    def shift_array(self) -> np.ndarray:
        return np.array(self.shifts, dtype=np.int64)

    @cached_property
    def clustered(self) -> bool:
        """True when shifts follow the (head + j * base**c) cluster pattern."""
        if self.per_cluster < 2:
            return False
        heads = np.array(self.shifts[:: self.per_cluster], dtype=np.int64)
        expected = cluster_shifts(heads, self.per_cluster, self.base, self.n)
        return bool(np.array_equal(expected, self.shift_array))


@dataclass(frozen=True)
class IncoherenceReport:
    mu_max: float
    bound: float
    passed: bool


def verify_incoherence(plan: FrontendPlan) -> IncoherenceReport:
    """Worst pairwise column coherence of the shift pattern.

    mu(l) = |sum_s exp(2j*pi*l*r_s/n)| / D for l = 1..n-1; the report
    compares max_l mu(l) against 2*sqrt(ln(5n)/D).  The scan is done as
    one length-n FFT of the shift multiset histogram, which evaluates
    exactly the same sums.  Shifts are first translated so the first one
    is zero; mu is invariant under translation.
    """
    shifts = plan.shift_array
    d_chains = plan.chain_count
    translated = (shifts - shifts[0]) % plan.n
    hist = np.bincount(translated, minlength=plan.n).astype(np.float64)
    mags = np.abs(np.fft.rfft(hist))
    mu_max = float(mags[1:].max() / d_chains)
    bound = 2.0 * math.sqrt(math.log(5.0 * plan.n) / d_chains)
    return IncoherenceReport(mu_max=mu_max, bound=bound, passed=mu_max < bound)


def build_plan(
    preset: str | int | Preset,
    k: int,
    *,
    clusters: int | None = None,
    per_cluster: int | None = None,
    gamma: float = 0.2,
    c1: float = 8.0,
    seed: int = 0,
) -> FrontendPlan:
    """Assemble and screen a complete plan.

    Shift patterns are drawn until verify_incoherence passes, up to
    MAX_SHIFT_DRAWS attempts.  Explicit clusters/per_cluster override the
    defaults from choose_cluster_params.
    """
    if isinstance(preset, Preset):
        entry = preset
    elif isinstance(preset, str):
        entry = preset_by_name(preset)
    else:
        entry = preset_for_length(int(preset))
    n = entry.n
    _, bins = plan_stages(n, k)
    params = choose_cluster_params(n, c1=c1)
    C = clusters if clusters is not None else params.clusters
    N = per_cluster if per_cluster is not None else params.per_cluster
    for draw in range(MAX_SHIFT_DRAWS):
        shifts = plan_delays(n, C, N, params.base, seed + draw)
        plan = FrontendPlan(
            n=n,
            bin_counts=bins,
            clusters=C,
            per_cluster=N,
            base=params.base,
            shifts=tuple(int(r) for r in shifts),
            gamma=gamma,
            c1=c1,
        )
        if verify_incoherence(plan).passed:
            return plan
    raise PlanningError(
        f"no shift pattern passed incoherence screening in {MAX_SHIFT_DRAWS} draws at n={n}"
    )
