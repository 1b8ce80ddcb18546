"""Input checks that no other test reaches: each raises on a minimal bad input.

Every case names the call, the exception type it must raise and the start
of the message.  The CLI case reports its exit code and stderr as one
SystemExit, so that it fits the same table.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from permstab.cli import main
from permstab.errors import CapacityError, NonGeneratingError
from permstab.groups import (
    GroupHom,
    MarkedGroup,
    MarkedHom,
    MarkedMap,
    PermAction,
    PermGroup,
    TableGroup,
    cyclic,
    direct_product,
    group_from_perm_generators,
    left_regular,
    product_with_free_z,
    sl2_mod,
)
from permstab.oracle import nearest_homomorphism_bruteforce
from permstab.perms import PartialInjection, Perm, identity
from permstab.rounding import commuting_extension, extract_conjugacy, nearest_right_translation
from permstab.spectral import kazhdan_abelian_exact, kazhdan_bracket


def _additive(n, gens):
    """ℤ/n as a TableGroup with the declared generators."""
    idx = np.arange(n)
    return TableGroup((idx[:, None] + idx[None, :]) % n, gens)


def _round_cli(tmp_path):
    """`permstab round` on an input whose k_gens holds an integer, not a list."""
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"group": "cyclic:5", "y_size": 5, "k_gens": [5]}))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["round", "--input", str(inp)])
    raise SystemExit(f"{code} {err.getvalue()}")


def _sl2_43_times_z3(_):
    G = direct_product(sl2_mod(43), cyclic(3))
    kazhdan_bracket(G, G.generators)


def _commuting_extension_over_cap(_):
    G = cyclic(4097)  # one point, so the action is 4097 rows of [0]
    commuting_extension(G, PermAction(G, np.zeros((G.order, 1), dtype=np.int64)), identity(1))


Z2 = [Perm([0, 1]), Perm([1, 0])]
FREE2 = MarkedGroup.free(2)

# name -> (call on pytest's tmp_path, exception type, start of its message)
CASES = {
    "table_not_square": (lambda _: TableGroup([[0, 1]], []), ValueError, "table must be square"),
    "sl2_index_of_det_4": (lambda _: sl2_mod(5).index_of(2, 0, 0, 2), ValueError, "matrix is not in SL2"),
    "perm_group_no_identity": (
        lambda _: PermGroup(np.array([[1, 0]]), [0]), ValueError, "rows do not contain the identity"
    ),
    "perm_generators_none": (
        lambda _: group_from_perm_generators([]), ValueError, "need at least one generator"
    ),
    "perm_generators_mixed": (
        lambda _: group_from_perm_generators([Perm([1, 0]), Perm([1, 2, 0])]),
        ValueError,
        "generators act on different point counts",
    ),
    "product_order_cap": (
        lambda _: direct_product(cyclic(5000), cyclic(5000)),
        CapacityError,
        "product order 25000000 exceeds cap 10000000",
    ),
    "spectral_cap": (_sl2_43_times_z3, CapacityError, "group order 238392 exceeds spectral cap 200000"),
    "characters_not_generated": (
        lambda _: kazhdan_abelian_exact(_additive(4, [2]), [1]),
        NonGeneratingError,
        "declared generators do not generate G",
    ),
    "character_cap": (
        lambda _: kazhdan_abelian_exact(_additive(100, [1, 1, 1, 1]), [1]),
        CapacityError,
        "character scan over 100000000 candidates exceeds cap",
    ),
    "marked_hom_count": (
        lambda _: MarkedHom(FREE2, cyclic(3), [1]), ValueError, "wrong number of generator images"
    ),
    "marked_map_count": (
        lambda _: MarkedMap(FREE2, Z2[:1]), ValueError, "one Perm per marked generator required"
    ),
    "marked_map_mixed": (
        lambda _: MarkedMap(FREE2, [Perm([1, 0]), Perm([1, 2, 0])]),
        ValueError,
        "generator images act on different point counts",
    ),
    "group_hom_count": (
        lambda _: GroupHom(cyclic(3), cyclic(3), [0, 1]), ValueError, "image array has wrong length"
    ),
    "oracle_presentation": (
        lambda _: nearest_homomorphism_bruteforce(MarkedGroup.free(1), MarkedMap(FREE2, Z2)),
        ValueError,
        "marked presentation does not match the input map",
    ),
    "translation_phi_size": (
        lambda _: nearest_right_translation(cyclic(3), [1], Perm([1, 0])),
        ValueError,
        "phi must permute the group's element indices",
    ),
    "extension_phi_size": (
        lambda _: commuting_extension(cyclic(3), left_regular(cyclic(3)), Perm([1, 0])),
        ValueError,
        "phi must act on the action's points",
    ),
    "extension_conjugacy_cap": (_commuting_extension_over_cap, CapacityError, "group order 4097 exceeds cap 4096"),
    "conjugacy_point_counts": (
        lambda _: extract_conjugacy(cyclic(2), Z2, [Perm([0, 1, 2]), Perm([1, 0, 2])]),
        ValueError,
        "actions live on different point counts",
    ),
    "cli_round_k_gens": (_round_cli, SystemExit, "1 config error: k_gens must be a list of integers"),
    "perm_2d": (lambda _: Perm([[0]]), ValueError, "image must be one-dimensional"),
    "perm_empty": (lambda _: Perm([]), ValueError, "permutation on an empty set is not supported"),
    "injection_empty": (lambda _: PartialInjection([]), ValueError, "empty domain is not supported"),
    "injection_out_of_range": (
        lambda _: PartialInjection([2, -1]), ValueError, "defined targets out of range"
    ),
    "identity_0": (lambda _: identity(0), ValueError, "n must be positive"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_input_raises(name, tmp_path):
    call, error, message = CASES[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value).startswith(message), str(info.value)


def test_product_with_free_z_shifts_lambda_relators():
    # (F₂ ∗ ℤ) × ℤ²: Λ's commutator moves past Γ's two generators and t to
    # letters 4 and 5, and every Γ generator and t commutes with both
    marked = product_with_free_z(FREE2, MarkedGroup.free_abelian(2))
    assert marked.generator_count == 5
    assert marked.relators == (
        (4, 5, -4, -5),
        (1, 4, -1, -4), (1, 5, -1, -5), (2, 4, -2, -4), (2, 5, -2, -5),
        (3, 4, -3, -4), (3, 5, -3, -5),
    )
