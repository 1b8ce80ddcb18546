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


# (ℤ/2)⁶ inside Y = X + 4 points; K conjugates its right translations by the
# swap of X's last point with Y's first point outside X, so ε = 3/64 and the
# pipeline recovers it with set loss 1 and displacement 1, at κ = 2
_Z2_6 = (
    "import numpy as np\n"
    "from fractions import Fraction\n"
    "from permstab import rounding\n"
    "from permstab.groups import cyclic, direct_product, right_regular\n"
    "from permstab.perms import Perm\n"
    "G = cyclic(2)\n"
    "for _ in range(5):\n"
    "    G = direct_product(G, cyclic(2))\n"
    "tau = np.r_[0:63, 64, 63, 65:68]\n"
    "gens = [Perm(tau[np.r_[right_regular(G).rows[g], 64:68]][tau]) for g in G.generators]\n"
)
# the action of ℤ/2 on {0}, {1, 2}, {3, 4}, {5} and a φ that matches {5} and
# sends it to {0}, leaving {0}, {1, 2}, {3, 4} on one side and {1, 2}, {3, 4},
# {5} on the other
_C2_ORBITS = (
    "import numpy as np\n"
    "from permstab import rounding\n"
    "from permstab.groups import PermAction, cyclic\n"
    "from permstab.perms import Perm\n"
    "G = cyclic(2)\n"
    "act = PermAction(G, np.array([[0, 1, 2, 3, 4, 5], [0, 2, 1, 4, 3, 5]]))\n"
    "phi = Perm([2, 5, 4, 1, 3, 0])\n"
)

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
    "rounding_translation": (
        "from permstab.groups import cyclic\n"
        "from permstab.perms import Perm\n"
        "from permstab.rounding import nearest_right_translation\n"
        "nearest_right_translation(cyclic(6), [1], Perm([3, 4, 1, 2, 5, 0]), kappa_lower=2.0)\n",
        "right-translation bound violated",  # κ(ℤ/6, {1}) = 1, not 2
    ),
    "rounding_invariant": (
        "from permstab.groups import cyclic\n"
        "from permstab.perms import Perm\n"
        "from permstab.rounding import extract_conjugacy\n"
        "a1 = [Perm([0, 1, 2]), Perm([1, 2, 0])]  # α₁(1)² ≠ id: not an action of ℤ/2\n"
        "a2 = [Perm([0, 1, 2]), Perm([2, 1, 0])]\n"
        "extract_conjugacy(cyclic(2), a1, a2, verify_actions=False)\n",  # X1 = {2}, α₁(1)·2 = 0
        "X1 is not invariant",
    ),
    "rounding_equivariance": (
        "from permstab.groups import cyclic\n"
        "from permstab.perms import Perm\n"
        "from permstab.rounding import extract_conjugacy\n"
        "a1 = [Perm([0, 1, 2]), Perm([1, 0, 2]), Perm([0, 1, 2])]  # not actions of ℤ/3\n"
        "a2 = [Perm([0, 1, 2]), Perm([1, 2, 0]), Perm([0, 2, 1])]\n"
        "extract_conjugacy(cyclic(3), a1, a2, verify_actions=False)\n",
        "equivariance φ∘α₁(k) = α₂(k)∘φ fails on X1",
    ),
    "rounding_census": (
        _C2_ORBITS
        + "rounding._orbit_type = lambda fixes, orbit: (orbit[0],)  # every orbit its own type\n"
        "rounding.commuting_extension(G, act, phi)\n",
        "orbit-type censuses of the leftover parts disagree",
    ),
    "rounding_stabilizers": (
        _C2_ORBITS
        + "rounding._orbit_type = lambda fixes, orbit: ()  # one type: {1, 2} meets {0}\n"
        "rounding.commuting_extension(G, act, phi)\n",
        "orbit stabilizers are not conjugate",
    ),
    "rounding_orbit": (
        _C2_ORBITS
        + "orbits = rounding._orbits\n"
        "rounding._orbits = lambda action: [o[::-1] for o in orbits(action)]  # unsorted\n"
        "rounding.commuting_extension(G, act, phi)\n",
        "the orbit of a1 is not o1",
    ),
    "rounding_transport": (
        "import numpy as np\n"
        "from permstab import rounding\n"
        "from permstab.groups import PermAction, group_from_perm_generators\n"
        "from permstab.perms import Perm\n"
        "S3 = group_from_perm_generators([Perm([1, 2, 0]), Perm([1, 0, 2])])\n"
        "relabel = np.array([1, 0, 2])  # 3 + i is the point relabel[i] of a second copy\n"
        "second = 3 + np.argsort(relabel)[S3.rows[:, relabel]]\n"
        "fixed = np.full((6, 1), 6)\n"
        "act = PermAction(S3, np.hstack([S3.rows, second, fixed, fixed + 1]))\n"
        "e = S3.identity_index\n"
        "rounding._conjugator = lambda *args: e  # Stab(0) ≠ Stab(3)\n"
        "rounding.commuting_extension(S3, act, Perm([4, 1, 5, 3, 2, 0, 6, 7]))\n",
        "the transported orbit is not o2",
    ),
    "rounding_commute": (
        "from permstab import rounding\n"
        "from permstab.groups import cyclic, left_regular\n"
        "from permstab.perms import Perm\n"
        "bijection = rounding._equivariant_orbit_bijection\n"
        "rounding._equivariant_orbit_bijection = lambda *args: bijection(*args)[::-1]\n"
        "G = cyclic(3)  # φ conjugates the rotation to its inverse, so X1 = ∅\n"
        "rounding.commuting_extension(G, left_regular(G), Perm([1, 0, 2]))\n",
        "extension fails to commute with the action",
    ),
    "rounding_extension_bound": (
        "from permstab import rounding\n"
        "from permstab.groups import cyclic, left_regular\n"
        "extract = rounding.extract_conjugacy\n"
        "def unmatched(*args, **kwargs):  # X1 = ∅, so ψ is the identity\n"
        "    res = extract(*args, **kwargs)\n"
        "    res.X1 = []\n"
        "    return res\n"
        "rounding.extract_conjugacy = unmatched\n"
        "G = cyclic(8)\n"
        "rounding.commuting_extension(G, left_regular(G), G.right_perm(5))\n",
        "commuting-extension distance bound violated",  # ε = 0
    ),
    "rounding_k0": (
        "import numpy as np\n"
        "from permstab.groups import cyclic\n"
        "from permstab.perms import Perm\n"
        "from permstab.rounding import rigidity_pipeline\n"
        "a = Perm(np.r_[14:21, 7:14, 0:7, 21:28])  # swaps X's [0, 7) out\n"
        "b = Perm(np.r_[0:7, 21:28, 14:21, 7:14])  # swaps X's [7, 14) out: ab ∉ K₀\n"
        "rigidity_pipeline(cyclic(14), [1], 28, [a, b], kappa_lower=2.0)\n",
        "K₀ failed to close into a subgroup",  # ε = 1/14 passes only as κ(ℤ/14, {1}) is overstated
    ),
    "rounding_zero_defect": (
        _Z2_6
        + "rounding._measure_epsilon = lambda *args: Fraction(0)\n"
        "rounding.rigidity_pipeline(G, list(range(1, 64)), 68, gens, kappa_lower=2.0)\n",
        "zero-defect instance must be recovered exactly",
    ),
    "rounding_set_loss": (
        _Z2_6
        + "rounding._measure_epsilon = lambda *args: Fraction(1, 10**6)  # 4162·ε·64/16 < 1\n"
        "rounding.rigidity_pipeline(G, list(range(1, 64)), 68, gens, kappa_lower=2.0)\n",
        "set-loss bound (4162/κ⁴) violated",
    ),
    "rounding_displacement": (
        _Z2_6
        + "rounding._measure_epsilon = lambda *args: Fraction(1, 10**4)  # 2048·ε·64/16 < 1\n"
        "rounding.rigidity_pipeline(G, list(range(1, 64)), 68, gens, kappa_lower=2.0)\n",
        "displacement bound (2048/κ⁴) violated",  # while 4162·ε·64/16 > 1
    ),
    "almost_invariant": (
        "import numpy as np\n"
        "from permstab import almost_invariant\n"
        "rows = np.array([[0, 1, 2], [1, 2, 0]])  # {e, (0 1 2)}: not closed\n"
        "almost_invariant.round_to_invariant(np.array([True, False, False]), rows)\n",
        "rounded set is not invariant",
    ),
    "almost_invariant_bound": (
        "import numpy as np\n"
        "from permstab import almost_invariant\n"
        "rows = np.array([[0, 0, 0, 3]])  # not a permutation: it sends all of X = {0, 1, 2} to 0\n"
        "almost_invariant.round_to_invariant(np.array([True, True, True, False]), rows)\n",
        "invariant rounding bound violated",  # X0 = {0}, while no h moves a point out of X
    ),
    "oracle": (
        "import numpy as np\n"
        "from permstab import oracle\n"
        "from permstab.groups import MarkedGroup, MarkedMap\n"
        "from permstab.perms import Perm\n"
        "oracle._scan = lambda marked, targets: np.array([[1, 0, 2], [0, 2, 1]])  # (0 1), (1 2)\n"
        "Z2 = MarkedGroup.free_abelian(2)\n"
        "oracle.nearest_homomorphism_bruteforce(Z2, MarkedMap(Z2, [Perm([0, 1, 2])] * 2))\n",
        "oracle images violate relator (1, 2, -1, -2)",  # (0 1) and (1 2) do not commute
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
        "tables = groups._sl2_tables\n"
        "def dropped(n):  # [[0, 1], [n - 1, 0]], the first matrix, is not enumerated\n"
        "    entries, first = tables(n)\n"
        "    return entries[:, 1:], first\n"
        "groups._sl2_tables = dropped\n"
        "groups.sl2_mod(5)\n",
        "|SL2(Z/n)| disagrees with n³·Π(1 - ℓ⁻²)",
    ),
    "spectral_coordinates": (
        "from permstab import spectral\n"
        "from permstab.groups import sl2_mod\n"
        "cycle_min = spectral._cycle_min\n"
        "def turned(step, m):  # block 0 of SL2(Z/5) splits with r = 2, and h has order 10\n"
        "    lead, back = cycle_min(step, m)\n"
        "    if m == 2:\n"
        "        back[0] = 1 - back[0]  # coset 0 claims R_C·n^f with the wrong f\n"
        "    return lead, back\n"
        "spectral._cycle_min = turned\n"
        "X = sl2_mod(5)\n"
        "spectral._lambda1(X, X.generators)\n",
        "the coordinates φ^f(R_C)·h^e are not a bijection onto G",
    ),
    "spectral_closure": (
        "from permstab import spectral\n"
        "from permstab.groups import sl2_mod\n"
        "X = sl2_mod(8)\n"
        "order = X.element_order\n"
        "def claimed(g, within=None):  # every φ of N(H)/H claims one more than its order modulo H\n"
        "    return order(g) if within is None else order(g, within) + 1\n"
        "X.element_order = claimed\n"
        "spectral.kazhdan_bracket(X, X.generators)\n",  # so φ^r(r_c) = r_c·h^e0 fails
        "the coordinates φ^f(R_C)·h^e are not a bijection onto G",
    ),
    "spectral_commutation": (
        "import numpy as np\n"
        "from permstab import spectral\n"
        "from permstab.groups import sl2_mod\n"
        "X = sl2_mod(5)  # h has order 10, so N = 12 coset representatives r_c\n"
        "mul_many = X.mul_many\n"
        "def slipped(a, b):  # φ(r_c) = r_c·g swaps the images of r_0 and r_1\n"
        "    out = mul_many(a, b)\n"
        "    if np.ndim(b) == 0 and np.size(a) == 12:\n"
        "        out[[0, 1]] = out[[1, 0]]\n"
        "    return out\n"
        "X.mul_many = slipped\n"
        "spectral._lambda1(X, X.generators)\n",
        "φ does not commute with L",
    ),
    "spectral": (
        "import numpy as np\n"
        "from permstab import spectral\n"
        "from permstab.groups import sl2_mod\n"
        "eigvalsh = np.linalg.eigvalsh\n"
        "np.linalg.eigvalsh = lambda a: eigvalsh(a) + 1e-6  # mu 1e-6 above lambda1\n"
        "X = sl2_mod(13)\n"
        "spectral._lambda1(X, X.generators)\n",
        "the Cholesky certificate refuses a block",
    ),
    "spectral_characters": (
        "import numpy as np\n"
        "from permstab import spectral\n"
        "from permstab.groups import cyclic\n"
        "eigvalsh = np.linalg.eigvalsh\n"
        "np.linalg.eigvalsh = lambda a: eigvalsh(a) + 1e-6  # N = 1: one (R, 1, 1) stack\n"
        "spectral.kazhdan_bracket(cyclic(12), [1])\n",
        "the Cholesky certificate refuses a block",
    ),
    "spectral_cocycle": (
        "from permstab import spectral\n"
        "from permstab.groups import sl2_mod\n"
        "of = spectral._Field.of\n"
        "def corrupted(p):  # F's multiplier 2 at x = 1 gets the phase numerator of 4\n"
        "    field = of(p)\n"
        "    field.log[2] += 1\n"
        "    return field\n"
        "spectral._Field.of = corrupted\n"
        "X = sl2_mod(5)\n"
        "spectral.kazhdan_bracket(X, X.generators)\n",
        "the principal-series phases fail the cocycle identity",
    ),
    "spectral_generator": (
        "from permstab import spectral\n"
        "from permstab.groups import sl2_mod\n"
        "spectral._generator = lambda p, eps: (p - 1, 0)  # -1 has order 2\n"
        "X = sl2_mod(5)\n"
        "spectral.kazhdan_bracket(X, X.generators)\n",
        "g0 does not generate 𝔽_{p²}^×",
    ),
    "spectral_bracket": (
        "from permstab import spectral\n"
        "spectral.KazhdanBracket(lower=0.5, upper=0.25, lambda1=0.0, method='laplacian-bracket')\n",
        "bracket must satisfy 0 <= lower <= upper <= 2",
    ),
}


# Bounds that no fault reaches through a seam.  Each carries a constant of the
# paper, so it stays in src/ and runs on every call.  Both 16ε bounds of
# extract_conjugacy hold with 2ε for any rows that are permutations: x ∉ X1,
# or φ(x) ≠ x, needs α₁(k)x ≠ α₂(k)x for at least half of the k.
UNREACHED = ("conjugacy set-loss bound violated", "displacement bound violated")


# every module of src/ that calls certify, with the number of calls it makes
CERTIFIED = {
    "almost_invariant.py": 2,
    "families.py": 9,
    "groups.py": 3,
    "oracle.py": 1,
    "rounding.py": 15,
    "spectral.py": 6,
}


def test_every_certifying_module_is_guarded():
    calls = {
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "certify"
    }
    assert calls == set(CERTIFIED)


@pytest.mark.parametrize("module", sorted(CERTIFIED))
def test_every_certificate_has_a_fault(module):
    # each certify(...) name, an f-string by its leading constant, starts the
    # expected message of some FAULTS case or is an UNREACHED bound
    names = []
    for node in ast.walk(ast.parse((ROOT / "src" / "permstab" / module).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "certify":
            name = node.args[0]
            name = name.values[0] if isinstance(name, ast.JoinedStr) else name
            assert isinstance(name, ast.Constant) and isinstance(name.value, str), ast.dump(node)
            names.append(name.value)
    assert len(names) == CERTIFIED[module]
    expected = [message for _, message in FAULTS.values()]
    missed = {n for n in names if not any(m.startswith(n) for m in expected)}
    assert missed == set(UNREACHED) & set(names)


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
    proc = subprocess.run([sys.executable, "-B", "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
