import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_prints_what_its_comments_say():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    noiseless, ratios, rate = out.getvalue().splitlines()
    assert re.fullmatch(r"0\.496\d* None", noiseless)
    assert [float(x) for x in ratios.strip("[]").split()] == pytest.approx([3.03, 0.356], abs=0.005)
    assert (namespace["p_lo"], namespace["ratio_up"]) == pytest.approx((0.330, 3.03), abs=0.005)
    assert 0.0 < float(rate) < float(noiseless.split()[0])
