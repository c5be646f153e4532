import re
import tokenize
from pathlib import Path

import ncergo

PACKAGE = Path(ncergo.__file__).parent
EXPONENT = re.compile(r"^(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)[eE][+-]?\d")
GUARD = "1e-300"  # divide-by-zero guard, not a threshold


def test_no_threshold_literal_outside_config():
    """Every exponent-notation number outside config.py is a threshold
    that belongs in config.py; comments and docstrings are not tokens."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "config.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if (tok.type == tokenize.NUMBER and tok.string != GUARD
                        and EXPONENT.match(tok.string)):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not found, "\n".join(found)
