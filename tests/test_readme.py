"""The README's "Library use" examples run as written, and its run spec is
valid: a README that names a removed or renamed public name or spec key
fails here."""

import json
import re
from pathlib import Path

from conftest import build_los_trace, patch_cpus
from rayblock.cli import main, parse_run_spec
from rayblock.trace import export_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(section: str, language: str) -> list[str]:
    """The code blocks in language of the README's section, in order."""
    text = README.read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.DOTALL)


def library_use_blocks() -> list[str]:
    return code_blocks("Library use", "python")


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


def test_readme_run_spec_is_valid(tmp_path, capsys):
    [block] = code_blocks("Run specification", "json")
    spec = parse_run_spec(json.loads(block))
    assert len(spec.obstacles) == 2 and len(spec.models_to_compare) == 5
    path = tmp_path / "spec.json"
    path.write_text(block)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: ok\n"
