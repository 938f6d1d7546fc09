"""DESIGN.md §4 maps every reproduced figure to a bench target; every
target it names must exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _experiment_index() -> str:
    text = (ROOT / "DESIGN.md").read_text()
    start = text.index("## 4. Experiment index")
    return text[start:text.index("\n## ", start + 1)]


def test_every_bench_target_in_the_experiment_index_exists():
    targets = re.findall(r"`(benchmarks/[\w/.-]+\.py)", _experiment_index())
    assert len(targets) >= 20
    missing = sorted({t for t in targets if not (ROOT / t).is_file()})
    assert missing == []
