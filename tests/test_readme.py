"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    [snippet] = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    namespace: dict = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["name"] == "report.md"
    assert namespace["data"].startswith(b"# Medical device recall initiator report")
