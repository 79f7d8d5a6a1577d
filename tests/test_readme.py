"""The README's "Library use" examples run as written: a README that names a
removed or renamed public name fails here."""

import re
from pathlib import Path

from conftest import build_los_trace, patch_cpus
from rayblock.trace import export_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks() -> list[str]:
    """The python code blocks of the README's "Library use" section, in order."""
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_readme_library_use_runs(tmp_path, monkeypatch):
    # the examples read a scenario at scenario/ with a (0, 1) pair and write out/
    export_scenario(build_los_trace((1, 3, 1.6), (9, 3, 1.6), num_steps=20, time_step=0.005),
                    tmp_path / "scenario")
    monkeypatch.chdir(tmp_path)
    patch_cpus(monkeypatch, 1)  # one worker: the examples start no process pool
    blocks = library_use_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["snr"].shape == (20, 2)
    assert namespace["trace"].num_steps == 20
    assert (tmp_path / "out" / "trace" / "Output" / "Ns3" / "QdFiles" / "Tx0Rx1.txt").is_file()
