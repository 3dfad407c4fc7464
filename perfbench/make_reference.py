"""Regenerate reference.json, the tables the spectrum workload is gated against.

The tables come from scipy.special (Cephes/Amos Airy functions), an
implementation independent of gravqm's from-scratch Airy code:

* ``ai_zeros``: the first 50 negative zeros of Ai, from ``scipy.special.ai_zeros``;
* ``p_outside``: probability of finding bouncer level n beyond its classical
  turning point, int_0^inf Ai^2 / int_{a_n}^inf Ai^2, by adaptive quadrature
  (no use of the closed tail identity that gravqm ships).

Run: python3 perfbench/make_reference.py
"""

import json
from pathlib import Path

import numpy as np
import scipy.integrate as integrate
import scipy.special as special


def _tail(x: float) -> float:
    """int_x^inf Ai(s)^2 ds, split at 0 so quad sees one regime per piece."""
    def f(s):
        return special.airy(s)[0] ** 2

    head = integrate.quad(f, x, 0.0, limit=400, epsabs=1e-15, epsrel=1e-13)[0] if x < 0 else 0.0
    rest = integrate.quad(f, max(x, 0.0), np.inf, limit=400, epsabs=1e-15, epsrel=1e-13)[0]
    return head + rest


def main() -> None:
    zeros = special.ai_zeros(50)[0]
    beyond = _tail(0.0)
    table = {
        "source": "scipy.special.ai_zeros and quadrature of scipy.special.airy",
        "ai_zeros": [float(z) for z in zeros],
        "p_outside": [beyond / _tail(float(z)) for z in zeros],
    }
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
