"""Front-end planning: stage bin counts, cluster heads, screening.

A plan is an admissible length n, its d subsampling stages (stage i
keeps every (n/f_i)-th sample and produces f_i bins; each f_i divides
n), the chains per cluster N and one random head per cluster.  The rest
is derived:

* base is the smallest prime that does not divide n, so consecutive
  same-cluster shifts alias distinctly;
* clusters C is the number of heads.  build_plan draws the smallest C
  with base**(C-1) * C1 > n, for the design constant C1, unless set
  explicitly;
* the D = C * N circular shifts shared by all stages are
  shift (c, j) = (head_c + j * base**c) mod n, j = 0..N-1.

Admissible n are kept in a preset table; each entry records the
pairwise-coprime base factors whose product is n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .randomness import generator
from .spectral import unit_roots

_STREAM_HEADS = 0xB1

MAX_SHIFT_DRAWS = 200
# Refinement lock-in divisor: each cluster estimate must land within
# pi/C1 of the truth for the next, finer cluster to pick the right cell.
C1 = 8.0


class PlanningError(ValueError):
    """Raised when no admissible plan exists for the request."""


@dataclass(frozen=True)
class Preset:
    """An admissible length with its coprime factorization.

    factors multiply to n and are pairwise coprime.  A stretched member
    of a sweep family (paper-124950xj) has n = j * prod(factors) with
    the base bin counts kept, so the sampling periods grow with n.
    Two factors admit one design, the factors as two stages, which
    plan_stages uses at every sparsity (the 20-point reference preset).
    """

    name: str
    n: int
    factors: tuple[int, ...]


def _build_presets() -> dict[str, Preset]:
    entries = [
        Preset("paper-20", 20, (4, 5)),
        Preset("n504", 504, (7, 8, 9)),
        Preset("n990", 990, (9, 10, 11)),
        Preset("paper-1430", 1430, (10, 11, 13)),
        Preset("n2730", 2730, (13, 14, 15)),
        Preset("n4845", 4845, (15, 17, 19)),
        Preset("paper-124950", 124950, (49, 50, 51)),
    ]
    for j in range(2, 13):
        entries.append(Preset(f"paper-124950x{j}", 124950 * j, (49, 50, 51)))
    return {p.name: p for p in entries}


PRESETS: dict[str, Preset] = _build_presets()


def preset_by_name(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise PlanningError(
            f"unknown preset {name!r}; known presets: {', '.join(sorted(PRESETS))}"
        ) from None


def sparsity_index(n: int, k: int) -> float:
    """delta such that k = n**delta (0 for k <= 1)."""
    if k <= 1:
        return 0.0
    return math.log(k) / math.log(n)


def plan_stages(preset: Preset, k: int) -> tuple[int, ...]:
    """Choose the per-stage bin counts for (preset.n, k); d is their count.

    A two-factor preset always uses its factors as two stages.  Otherwise
    regimes split at delta = 1/3 where k = n**delta.  Very sparse keeps
    the d = 3 coprime base factors as bin counts.  Less sparse uses
    d = round(1/(1-delta)) stages whose bin counts are products of d-1
    cyclically consecutive base factors, so every pair of stages shares
    all but one factor.  Stretched presets keep the base bin counts.
    """
    n = preset.n
    if k < 0 or k > n:
        raise PlanningError(f"k must lie in [0, n], got k={k}, n={n}")
    factors = preset.factors
    if len(factors) == 2:
        return tuple(sorted(factors))

    delta = sparsity_index(n, k)
    if delta >= 1.0:
        raise PlanningError(
            f"k={k} at n={n} asks for unboundedly many stages (delta = 1) but preset "
            f"{preset.name} offers {len(factors)} coprime factors"
        )
    if delta <= 1.0 / 3.0:
        if len(factors) != 3:
            raise PlanningError(
                f"preset {preset.name} offers {len(factors)} coprime factors; "
                "the very-sparse regime needs exactly 3"
            )
        return tuple(sorted(factors))

    d = round(1.0 / (1.0 - delta))
    if d < 2:
        d = 2
    if d != len(factors):
        raise PlanningError(
            f"k={k} at n={n} asks for d={d} stages but preset {preset.name} "
            f"offers {len(factors)} coprime factors"
        )
    return tuple(math.prod(factors[(i + j) % d] for j in range(d - 1)) for i in range(d))


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


def choose_cluster_params(n: int) -> ClusterParams:
    """Cluster count and chains per cluster for length n.

    clusters is the smallest C with base**(C-1) * C1 > n, so the final
    refinement interval 2*pi/(base**(C-1)*C1) is finer than the 2*pi/n
    frequency grid.  per_cluster follows max(2, round(2 * ln(n)**(1/3))).
    """
    if n < 2:
        raise PlanningError(f"n must be at least 2, got {n}")
    base = smallest_coprime_base(n)
    c_minus_1 = 0
    power = 1
    while power * C1 <= n:
        power *= base
        c_minus_1 += 1
    clusters = max(1, c_minus_1 + 1)
    per_cluster = max(2, round(2.0 * math.log(n) ** (1.0 / 3.0)))
    return ClusterParams(clusters, per_cluster)


def draw_heads(n: int, clusters: int, seed: int) -> tuple[int, ...]:
    """Draw one random cluster head in [0, n) per cluster."""
    if clusters < 1:
        raise PlanningError(f"clusters must be at least 1, got {clusters}")
    rng = generator(seed, _STREAM_HEADS)
    return tuple(int(h) for h in rng.integers(0, n, size=clusters))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FrontendPlan:
    """Subsampling geometry shared by the front end and the decoder.

    The plan is n, the stage bin counts, the chains per cluster N and one
    head per cluster; the base, the cluster count and the shifts follow
    from them, so every plan has the clustered layout the classifier
    decodes.
    """

    n: int
    bin_counts: tuple[int, ...]
    per_cluster: int
    heads: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if len(self.bin_counts) < 2:
            raise ValueError("a plan needs at least 2 stages")
        for f in self.bin_counts:
            if f < 2 or self.n % f != 0:
                raise ValueError(f"bin count {f} must divide n={self.n} and exceed 1")
        if self.per_cluster < 2:
            raise PlanningError(f"per_cluster must be at least 2, got {self.per_cluster}")
        if not self.heads:
            raise PlanningError("a plan needs at least one cluster head")
        object.__setattr__(self, "bin_counts", tuple(int(f) for f in self.bin_counts))
        object.__setattr__(self, "heads", tuple(int(h) % self.n for h in self.heads))

    @cached_property
    def base(self) -> int:
        """Shift base: the smallest prime not dividing n."""
        return smallest_coprime_base(self.n)

    @property
    def clusters(self) -> int:
        return len(self.heads)

    @property
    def d(self) -> int:
        return len(self.bin_counts)

    @property
    def chain_count(self) -> int:
        return self.clusters * self.per_cluster

    @property
    def periods(self) -> tuple[int, ...]:
        return tuple(self.n // f for f in self.bin_counts)

    @property
    def sample_count(self) -> int:
        """Time-domain samples read: chain_count per bin, every bin."""
        return self.chain_count * sum(self.bin_counts)

    @cached_property
    def shift_array(self) -> np.ndarray:
        """Shift (c, j) = (heads[c] + j * base**c) mod n, cluster-major (read-only int64).

        base**c is taken mod n first, so every term stays below
        per_cluster * n and the shifts are exact at any cluster count.
        """
        steps = np.array([pow(self.base, c, self.n) for c in range(self.clusters)], dtype=np.int64)
        j = np.arange(self.per_cluster, dtype=np.int64)
        grid = np.array(self.heads, dtype=np.int64)[:, None] + steps[:, None] * j
        return _read_only((grid % self.n).ravel())

    @cached_property
    def shifts(self) -> tuple[int, ...]:
        return tuple(self.shift_array.tolist())

    @cached_property
    def row_offsets(self) -> tuple[int, ...]:
        """First row of each stage in the stage-major bank of all sum(f_i) bins."""
        return tuple(int(o) for o in np.cumsum((0,) + self.bin_counts[:-1]))

    @cached_property
    def row_stage(self) -> np.ndarray:
        """Stage of each bank row (read-only)."""
        return _read_only(np.repeat(np.arange(self.d), self.bin_counts))

    @cached_property
    def row_bin(self) -> np.ndarray:
        """Bin index within its stage of each bank row (read-only)."""
        return _read_only(np.concatenate([np.arange(f) for f in self.bin_counts]))

    @cached_property
    def sample_index(self) -> np.ndarray:
        """Time index each bank row reads under each shift (read-only).

        Row a of a stage with f bins reads (a * n/f + r_t) mod n under
        shift r_t: a (sum f_i, D) int64 array, laid out like the bank.
        """
        periods = np.repeat(self.periods, self.bin_counts)
        return _read_only(((self.row_bin * periods)[:, None] + self.shift_array) % self.n)


@dataclass(frozen=True)
class IncoherenceReport:
    mu_max: float
    bound: float
    passed: bool


# mu(l) is |a sum of D unit roots| / D, at most 1; a computed scan can
# exceed 1 only by rounding, so a screening bound above MU_CEILING passes
# every draw.
MU_CEILING = 1.0 + 1e-9


def incoherence_bound(n: int, d_chains: int) -> float:
    """The screening bound 2*sqrt(ln(5n)/D) on max_l mu(l) for D chains."""
    return 2.0 * math.sqrt(math.log(5.0 * n) / d_chains)


# Rows of the blocked scan that one matmul computes.  A block holds
# _BLOCK_ROWS * ceil(sqrt(n)) sums, so a scan of any length holds
# O(D * sqrt(n)) values at once.
_BLOCK_ROWS = 128


def _peak_exp_sum(n: int, f: np.ndarray) -> float:
    """max |sum_q exp(2j*pi*f_q*l/n)| over l = 1..n//2, for f in [0, n).

    Repeated frequencies add.  With p = b*W + r and W = ceil(sqrt(n)),
    the sum at p is entry (b, r) of the product of a (rows x D) table
    exp(2j*pi*f_q*W*b/n) and a (D x W) table exp(2j*pi*f_q*r/n), both read
    from unit_roots' table with their phases reduced mod n in exact
    integer arithmetic.  The product is computed _BLOCK_ROWS rows at a
    time into one reused block, and a running max of the magnitudes is
    kept, so the scan holds O(D*sqrt(n)) values.  When 9*D**2 > n one
    length-n rfft of the frequency histogram is cheaper; its entry l is
    the conjugate of the sum at l, of the same magnitude.
    """
    if 9 * f.size**2 > n:
        return float(np.abs(np.fft.rfft(np.bincount(f, minlength=n)))[1:].max())
    stop = n // 2 + 1
    width = math.isqrt(n - 1) + 1
    rows = -(-stop // width)
    height = min(rows, _BLOCK_ROWS)
    d_chains = f.size
    # The two tables and the block share one allocation.  glibc hands
    # freed heap back to the system once more than twice its largest
    # recent allocation lies free, and the next call faults it in again.
    # One allocation outweighs all else a scan holds (the integer phases,
    # unit_roots' table indices and gathers, and the block of
    # magnitudes), so repeated scans reuse their pages; as three
    # buffers, each screening call at n = 124,950 took ~320 page faults
    # and 25% longer.
    tables = d_chains * (rows + width)
    work = np.empty(tables + height * width, dtype=np.complex128)
    table_b = work[: rows * d_chains].reshape(rows, d_chains)
    table_r = work[rows * d_chains : tables].reshape(d_chains, width)
    block = work[tables:].reshape(height, width)
    unit_roots(np.arange(rows, dtype=np.int64)[:, None] * (f * width % n) % n, n, out=table_b)
    unit_roots(f[:, None] * np.arange(width, dtype=np.int64) % n, n, out=table_r)
    # allocated after the tables, so it never coexists with their phases
    magnitudes = np.empty((height, width))
    peak = 0.0
    for first in range(0, rows, _BLOCK_ROWS):
        last = min(first + _BLOCK_ROWS, rows)
        sums = np.matmul(table_b[first:last], table_r, out=block[: last - first])
        mags = np.abs(sums, out=magnitudes[: last - first]).reshape(-1)
        # l = 0 (each column against itself) opens the first block, and
        # the last block ends mid-row at l = n//2
        peak = max(peak, float(mags[int(first == 0) : stop - first * width].max()))
    return peak


def verify_incoherence(plan: FrontendPlan) -> IncoherenceReport:
    """Worst pairwise column coherence of the shift pattern.

    mu(l) = |sum_s exp(2j*pi*l*r_s/n)| / D for l = 1..n-1; the report
    compares max_l mu(l) against incoherence_bound(n, D).  mu is
    invariant under translation of the shifts and mu(n - l) = mu(l), so
    the peak is _peak_exp_sum of the shifts less the first, over l <= n//2.
    """
    shifts = plan.shift_array
    d_chains = plan.chain_count
    mu_max = _peak_exp_sum(plan.n, (shifts - shifts[0]) % plan.n) / d_chains
    bound = incoherence_bound(plan.n, d_chains)
    return IncoherenceReport(mu_max=mu_max, bound=bound, passed=mu_max < bound)


def build_plan(
    preset: str,
    k: int,
    *,
    clusters: int | None = None,
    per_cluster: int | None = None,
    seed: int = 0,
) -> FrontendPlan:
    """Assemble and screen a complete plan.

    Cluster heads are drawn until verify_incoherence passes, up to
    MAX_SHIFT_DRAWS attempts.  Where incoherence_bound exceeds MU_CEILING
    (D below 4*ln(5n)), no draw can fail, so the first draw is kept
    without the O(n*D) scan.  Explicit clusters/per_cluster override the
    defaults from choose_cluster_params.
    """
    entry = preset_by_name(preset)
    n = entry.n
    bins = plan_stages(entry, k)
    params = choose_cluster_params(n)
    C = clusters if clusters is not None else params.clusters
    N = per_cluster if per_cluster is not None else params.per_cluster
    for draw in range(MAX_SHIFT_DRAWS):
        heads = draw_heads(n, C, seed + draw)
        plan = FrontendPlan(n=n, bin_counts=bins, per_cluster=N, heads=heads)
        # after the plan checks C and N, so D is positive here
        if incoherence_bound(n, plan.chain_count) > MU_CEILING or verify_incoherence(plan).passed:
            return plan
    raise PlanningError(
        f"no shift pattern passed incoherence screening in {MAX_SHIFT_DRAWS} draws at n={n}"
    )
