"""Plan file tests: exact round trips and corruption detection."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffast.formats import FormatError, read_plan, write_plan
from ffast.planner import PRESETS, build_plan

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
    return build_plan(
        preset.name,
        k,
        gamma=draw(st.floats(0.0, 1.0 / 3.0, exclude_min=True)),
        c1=draw(st.floats(1e-3, 1e3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestPlanConfig:
    def test_round_trip_preserves_every_field(self, tmp_path, plan504):
        path = tmp_path / "plan.ini"
        write_plan(path, plan504)
        back = read_plan(path)
        assert back == plan504

    def test_gamma_and_c1_round_trip_exactly(self, tmp_path, plan20):
        path = tmp_path / "plan.ini"
        write_plan(path, plan20)
        back = read_plan(path)
        assert back.gamma == plan20.gamma
        assert back.c1 == plan20.c1

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(plan=plans())
    def test_any_screened_plan_round_trips(self, tmp_path_factory, plan):
        path = tmp_path_factory.mktemp("plans") / "plan.ini"
        write_plan(path, plan)
        assert read_plan(path) == plan

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            read_plan(tmp_path / "nope.ini")

    def test_malformed_plan_rejected(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text("[plan]\nn = twenty\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_plan(path)
