"""Public surface: the top-level names and the README quick start."""
import re
from pathlib import Path

import ffast

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "BinBank",
    "Constellation",
    "DecodeResult",
    "ExperimentConfig",
    "FrontendPlan",
    "PRESETS",
    "PeelEvent",
    "PlanningError",
    "SparseSpectrum",
    "TimeSignal",
    "add_noise",
    "auto_sweep",
    "build_plan",
    "decode",
    "random_spectrum",
    "run_experiment",
    "subsample_and_transform",
    "support_recovery",
    "synthesize",
]


def test_all_is_exactly_the_public_surface():
    assert sorted(ffast.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ffast, name) is not None


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert isinstance(namespace["result"], ffast.DecodeResult)
    assert namespace["plan"].sample_count < namespace["plan"].n
    printed = capsys.readouterr().out.split()
    assert printed == [str(namespace["result"].converged),
                       str(namespace["result"].spectrum.k)]
