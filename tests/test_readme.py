"""README's library example runs as written and prints what its comment says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comment(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(block, {})
    printed = re.findall(r"Parity\.(\w+): '\w+'>: ([\d.]+)", capsys.readouterr().out)
    # the comment's digits, e.g. "Parity.EVEN: 0.83333333...", must begin each printed mean
    commented = re.findall(r"Parity\.(\w+): ([\d.]+?)\.\.\.", block.rstrip().splitlines()[-1])
    assert [name for name, _ in printed] == [name for name, _ in commented] == ["EVEN", "ODD"]
    for (_, value), (_, digits) in zip(printed, commented):
        assert value.startswith(digits), (value, digits)
