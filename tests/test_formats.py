"""Plan file tests: a written plan reads back as the same plan."""
import math
from configparser import ConfigParser

from hypothesis import given, settings
from hypothesis import strategies as st

from ffast.formats import write_plan
from ffast.planner import PRESETS, FrontendPlan, build_plan

SMALL_PRESETS = sorted(name for name, p in PRESETS.items() if p.n <= 4845)


@st.composite
def plans(draw):
    """Screened plans over the small presets, in both sparsity regimes."""
    preset = PRESETS[draw(st.sampled_from(SMALL_PRESETS))]
    n = preset.n
    if len(preset.factors) == 2:
        k = draw(st.integers(0, n))
    else:
        # very sparse (d = 3 base factors) or less sparse (3 composite stages)
        k = draw(
            st.one_of(
                st.integers(1, int(n ** (1.0 / 3.0))),
                st.integers(math.ceil(n**0.61), int(n**0.7)),
            )
        )
    return build_plan(preset.name, k, seed=draw(st.integers(0, 2**32 - 1)))


def _read_back(path) -> FrontendPlan:
    """The plan an INI plan file describes, read with configparser alone."""
    cfg = ConfigParser()
    assert cfg.read(path, encoding="utf-8")
    head = cfg["plan"]
    stages = [cfg[f"stage {i}"] for i in range(len(cfg.sections()) - 2)]
    n = int(head["n"])
    assert [int(s["period"]) for s in stages] == [n // int(s["bins"]) for s in stages]
    per_cluster = int(head["per_cluster"])
    shifts = tuple(int(tok) for tok in cfg["delays"]["shifts"].split())
    plan = FrontendPlan(
        n=n,
        bin_counts=tuple(int(s["bins"]) for s in stages),
        per_cluster=per_cluster,
        heads=shifts[::per_cluster],
    )
    # the file's base, cluster count and shifts are the ones the heads give
    assert (plan.base, plan.clusters, plan.shifts) == (
        int(head["base"]), int(head["clusters"]), shifts)
    return plan


class TestPlanConfig:
    def test_round_trip_preserves_every_field(self, tmp_path, plan504):
        path = tmp_path / "plan.ini"
        write_plan(path, plan504)
        assert _read_back(path) == plan504

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(plan=plans())
    def test_any_screened_plan_round_trips(self, tmp_path_factory, plan):
        path = tmp_path_factory.mktemp("plans") / "plan.ini"
        write_plan(path, plan)
        assert _read_back(path) == plan
