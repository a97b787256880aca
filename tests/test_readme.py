"""The README's library quick start runs and prints what its comments say."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_what_its_comments_say(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]
    # each print's comment opens with the value it prints: a fraction or a
    # quoted string, up to the first colon
    expected = [re.search(r"#\s*([^:\s]+)", line)[1]
                for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert expected == ["-1/6", '"unstable"', "16/17"]
    assert len(printed) == len(expected)
    for out, want in zip(printed, expected):
        if want.startswith('"'):
            assert out == want.strip('"')
        else:
            assert float(out) == pytest.approx(float(Fraction(want)), rel=1e-9)
