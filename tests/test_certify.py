"""errors.certify is the package's one certificate check.

It compares ints and Fractions exactly and raises CertificateError, so a
check holds under ``python -O`` too; src/permstab holds no `assert` that
could vanish there instead.
"""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from permstab.errors import CertificateError, certify

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "permstab").glob("*.py"))


def test_certify_compares_exactly():
    certify("at the bound", Fraction(1, 3), Fraction(2, 6))
    certify("below a strict bound", 0, Fraction(1, 10**30), strict=True)
    with pytest.raises(CertificateError, match=r"^at a strict bound: 1/3 < 1/3 fails$"):
        certify("at a strict bound", Fraction(1, 3), Fraction(1, 3), strict=True)
    with pytest.raises(CertificateError, match=r"^one violation: 1 <= 0 fails$"):
        certify("one violation", 1, 0)


@pytest.mark.parametrize("measured, bound", [(0.5, 1), (0, 1.0), (np.float64(0), 1)])
def test_certify_refuses_inexact_values(measured, bound):
    with pytest.raises(TypeError, match="^a float"):
        certify("a float", measured, bound)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_in_src(path):
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}; use errors.certify"


# Each case injects one fault into a module under python -O and expects the
# certificate that catches it.
FAULTS = {
    "families": (
        "from permstab import families\n"
        "families.window_cardinality = lambda order, alpha, beta: 2\n"
        "families.flagship_family(7)\n",  # |C| = 2 of 7: |B|/|X| = 2/7 > 1/6
        "|B|/|X| lies above the window",
    ),
    "families_below": (
        "from permstab import families\n"
        "families.window_cardinality = lambda order, alpha, beta: 0\n"
        "families.flagship_family(7)\n",  # C = B = ∅
        "|B|/|X| lies below the window",
    ),
    "families_transversal": (
        "from permstab import families\n"
        "reps = families.left_coset_reps\n"
        "def moved(X, H):  # Z[1] moves into Z[0]'s coset: Z[0]·u\n"
        "    Z = reps(X, H)\n"
        "    return [Z[0], X.mul(Z[0], sorted(H)[1])] + Z[2:]\n"
        "families.left_coset_reps = moved\n"
        "families.flagship_family(7)\n",
        "coset representatives are not a left transversal",
    ),
    "families_a_size": (
        "from permstab import families\n"
        "swap_counts = families._swap_counts\n"
        "families._swap_counts = lambda *args: swap_counts(*args) - 1  # same argmin g\n"
        "families.flagship_family(7)\n",
        "|A| disagrees with |B ∖ g⁻¹B|",
    ),
    "families_a_floor": (
        "import numpy as np\n"
        "from permstab import families\n"
        "swap_counts = families._swap_counts\n"
        "def at_identity(X, *args):  # g = e, so A = B ∖ B = ∅, as counts[e] = |B| says\n"
        "    counts = swap_counts(X, *args)\n"
        "    e = X.identity_index\n"
        "    out = np.full_like(counts, counts[e] + 1)\n"
        "    out[e] = counts[e]\n"
        "    return out\n"
        "families._swap_counts = at_identity\n"
        "families.flagship_family(7)\n",
        "|A|/|X| fell below the certified floor",
    ),
    "families_floor": (
        "from fractions import Fraction\n"
        "from permstab import families\n"
        "families.flagship_family(43, window=(Fraction(1, 100), Fraction(1, 20)))\n",  # |B|/|X| = 1/43
        "the certified floor fell below 5/42",
    ),
    "families_weights": (
        "from permstab import families\n"
        "weights = families._coset_weights\n"
        "def corrupted(X, *args):  # e is in Z and least in its double coset KeK = K\n"
        "    W = weights(X, *args)\n"
        "    W[X.identity_index] += 1\n"
        "    return W\n"
        "families._coset_weights = corrupted\n"
        "families.flagship_family(7)\n",
        "the counts do not sum to |B|²",
    ),
    "families_stabilizer": (
        "import numpy as np\n"
        "from permstab import families\n"
        "stabilizer = families._stabilizer\n"
        "def grown(X, *args):  # [[1,1],[0,1]] joins K but moves B\n"
        "    return np.append(stabilizer(X, *args), X.generators[0])\n"
        "families._stabilizer = grown\n"
        "families.flagship_family(7)\n",
        "a generator of K moves B off itself",
    ),
    "families_closed_form": (
        "from permstab import families\n"
        "fam = families.flagship_family(7).family\n"
        "fam.A = fam.A[1:]  # θ still swaps the dropped point with its g-translate\n"
        "families._commutator_curve(fam)\n",
        "closed-form defect disagrees at h=",
    ),
    "almost_invariant": (
        "import numpy as np\n"
        "from permstab import almost_invariant\n"
        "rows = np.array([[0, 1, 2], [1, 2, 0]])  # {e, (0 1 2)}: not closed\n"
        "almost_invariant.round_to_invariant(np.array([True, False, False]), rows)\n",
        "rounded set is not invariant",
    ),
    "groups": (
        "from permstab.groups import sl2_mod\n"
        "X = sl2_mod(5)\n"
        "X._first[(1 * 5 + 1) * 5 + 0] = -1  # the run of [[1, 1], [0, d]]\n"
        "X.index_of(1, 1, 0, 1)\n",
        "the lookup table misses an SL2 matrix",
    ),
    "groups_order": (
        "from permstab import groups\n"
        "rows = groups._sl2_rows\n"
        "groups._sl2_rows = lambda a, n: rows(a, n)[:, 1:] if a == 1 else rows(a, n)\n"
        "groups.sl2_mod(5)  # [[1, 0], [0, 1]] is not enumerated\n",
        "|SL2(Z/n)| disagrees with n³·Π(1 - ℓ⁻²)",
    ),
    "spectral_coordinates": (
        "from permstab import spectral\n"
        "from permstab.groups import sl2_mod\n"
        "cycle_min = spectral._cycle_min\n"
        "def turned(step, m):  # every split of SL2(Z/5) has r = 2, and h has order 10\n"
        "    lead, back = cycle_min(step, m)\n"
        "    if m == 2:\n"
        "        back[0] = 1 - back[0]  # coset 0 claims R_C·n^f with the wrong f\n"
        "    return lead, back\n"
        "spectral._cycle_min = turned\n"
        "X = sl2_mod(5)\n"
        "spectral.kazhdan_bracket(X, X.generators)\n",
        "the coordinates φ^f(R_C)·h^e are not a bijection onto G",
    ),
    "spectral_commutation": (
        "from permstab import spectral\n"
        "from permstab.groups import sl2_mod\n"
        "X = sl2_mod(5)\n"
        "X.automorphism_many = X.inv_many  # permutes S±, but (xy)⁻¹ = y⁻¹x⁻¹\n"
        "spectral.kazhdan_bracket(X, X.generators)\n",
        "φ does not commute with L",
    ),
    "spectral": (
        "import numpy as np\n"
        "from permstab import spectral\n"
        "from permstab.groups import sl2_mod\n"
        "eigvalsh = np.linalg.eigvalsh\n"
        "np.linalg.eigvalsh = lambda a: eigvalsh(a) + 1e-6  # mu 1e-6 above lambda1\n"
        "X = sl2_mod(13)\n"
        "spectral.kazhdan_bracket(X, X.generators)\n",
        "the Cholesky certificate refuses a block",
    ),
}


def test_every_families_certificate_has_a_fault():
    # each certify(...) name in families.py, an f-string by its leading
    # constant, starts the expected message of some FAULTS case
    names = []
    for node in ast.walk(ast.parse((ROOT / "src" / "permstab" / "families.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "certify":
            name = node.args[0]
            name = name.values[0] if isinstance(name, ast.JoinedStr) else name
            assert isinstance(name, ast.Constant) and isinstance(name.value, str), ast.dump(node)
            names.append(name.value)
    assert len(names) >= 9
    expected = [message for _, message in FAULTS.values()]
    assert [n for n in names if not any(m.startswith(n) for m in expected)] == []


@pytest.mark.parametrize("module", sorted(FAULTS))
def test_injected_fault_raises_under_optimize(module):
    body, name = FAULTS[module]
    code = (
        "from permstab.errors import CertificateError\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in body.splitlines())
        + "except CertificateError as exc:\n"
        f"    raise SystemExit(0 if str(exc).startswith({name!r}) else 2)\n"
        "raise SystemExit(1)\n"
    )
    env = {"PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
